package main

import (
	"fmt"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/runtime"
	"kset/internal/transport"
)

// The wrappers below time calls into one module's public interface and
// change nothing else: every optional interface the wrapped value
// implements (rounds.Stabilizer, StableSkeleton, rounds.Decider,
// transport.DeadMarker) is forwarded, and only those, so type switches
// in the program take the same branches as on the bare value. The
// traced-vs-untraced decision checks in each workload verify it.

// skeletoner is the optional StableSkeleton refinement sim.Execute
// looks for on an adversary.
type skeletoner interface{ StableSkeleton() *graph.Digraph }

// timedAdv times Graph(r) on a generator adversary.
type timedAdv struct {
	inner rounds.Adversary
	t     *seqTrace
}

func (a *timedAdv) N() int { return a.inner.N() }

func (a *timedAdv) Graph(r int) *graph.Digraph {
	start := now()
	g := a.inner.Graph(r)
	a.t.leaf(lAdvGraph, start)
	return g
}

type timedAdvStab struct {
	*timedAdv
	rounds.Stabilizer
}

type timedAdvSkel struct {
	*timedAdv
	skeletoner
}

type timedAdvStabSkel struct {
	*timedAdv
	rounds.Stabilizer
	skeletoner
}

// wrapAdversary returns adv with Graph timed into t, implementing
// exactly the optional interfaces adv implements. A *adversary.Run is
// returned bare: MaterializeRun short-circuits on it, and a wrapper
// would make it copy the schedule instead.
func wrapAdversary(adv rounds.Adversary, t *seqTrace) rounds.Adversary {
	if _, ok := adv.(*adversary.Run); ok {
		return adv
	}
	w := &timedAdv{inner: adv, t: t}
	st, isStab := adv.(rounds.Stabilizer)
	sk, isSkel := adv.(skeletoner)
	switch {
	case isStab && isSkel:
		return timedAdvStabSkel{w, st, sk}
	case isStab:
		return timedAdvStab{w, st}
	case isSkel:
		return timedAdvSkel{w, sk}
	}
	return w
}

// timedProc times one process's Send and Transition.
type timedProc struct {
	rounds.Algorithm
	s sink
}

func (p *timedProc) Send(r int) any {
	start := now()
	m := p.Algorithm.Send(r)
	p.s.leaf(lAlgoSend, start)
	return m
}

func (p *timedProc) Transition(r int, recv []any) {
	start := now()
	p.Algorithm.Transition(r, recv)
	p.s.leaf(lAlgoTransition, start)
}

type timedDecider struct {
	*timedProc
	rounds.Decider
}

func wrapProc(p rounds.Algorithm, s sink) rounds.Algorithm {
	w := &timedProc{Algorithm: p, s: s}
	if d, ok := p.(rounds.Decider); ok {
		return timedDecider{w, d}
	}
	return w
}

func unwrapProc(p rounds.Algorithm) rounds.Algorithm {
	switch w := p.(type) {
	case timedDecider:
		return w.Algorithm
	case *timedProc:
		return w.Algorithm
	}
	return p
}

// timedFactory wraps every process a config builds; unwrapResult undoes
// it on the result so Collect sees the family's own process types.
func timedFactory(cfg *rounds.Config, s sink) {
	inner := cfg.NewProcess
	cfg.NewProcess = func(self int) rounds.Algorithm { return wrapProc(inner(self), s) }
}

func unwrapResult(res *rounds.Result) {
	if res == nil {
		return
	}
	for i, p := range res.Procs {
		res.Procs[i] = unwrapProc(p)
	}
}

// timedSequential is sim's default executor, rounds.RunSequential,
// with the executor call, every Transition/Send and every Graph(r) of
// a generator adversary timed into t.
func timedSequential(t *seqTrace) func(rounds.Config) (*rounds.Result, error) {
	return func(cfg rounds.Config) (*rounds.Result, error) {
		timedFactory(&cfg, t)
		t.open(lRoundsExecutor)
		res, err := rounds.RunSequential(cfg)
		t.close()
		unwrapResult(res)
		return res, err
	}
}

// timedCodec times a family's codec.
type timedCodec struct {
	inner algo.Codec
	m     *meshRec
}

func (c timedCodec) Encode(dst []byte, msg any) ([]byte, error) {
	start := now()
	b, err := c.inner.Encode(dst, msg)
	c.m.leaf(lWireEncode, start)
	return b, err
}

func (c timedCodec) NewDecoder(n int) algo.Decoder {
	return timedDecoder{inner: c.inner.NewDecoder(n), m: c.m}
}

type timedDecoder struct {
	inner algo.Decoder
	m     *meshRec
}

func (d timedDecoder) Decode(from int, payload []byte) (any, error) {
	start := now()
	v, err := d.inner.Decode(from, payload)
	d.m.leaf(lWireDecode, start)
	return v, err
}

// timedTransport times Broadcast and Gather on every endpoint.
type timedTransport struct {
	transport.Transport
	m *meshRec
}

func (t *timedTransport) Endpoint(self int) (transport.Endpoint, error) {
	ep, err := t.Transport.Endpoint(self)
	if err != nil {
		return nil, err
	}
	return &timedEndpoint{Endpoint: ep, m: t.m, self: self}, nil
}

type timedTransportDM struct {
	*timedTransport
	transport.DeadMarker
}

func wrapTransport(tr transport.Transport, m *meshRec) transport.Transport {
	w := &timedTransport{Transport: tr, m: m}
	if dm, ok := tr.(transport.DeadMarker); ok {
		return timedTransportDM{w, dm}
	}
	return w
}

type timedEndpoint struct {
	transport.Endpoint
	m    *meshRec
	self int
}

func (ep *timedEndpoint) Broadcast(r int, payload []byte) error {
	start := now()
	err := ep.Endpoint.Broadcast(r, payload)
	ep.m.leaf(lTransportBroadcast, start)
	return err
}

func (ep *timedEndpoint) Gather(r int, into [][]byte) ([][]byte, error) {
	start := now()
	got, err := ep.Endpoint.Gather(r, into)
	end := now()
	rw := ep.m.row()
	rw.ns[lTransportGather].Add(end - start)
	rw.calls[lTransportGather].Add(1)
	ep.m.gathers[ep.self] = append(ep.m.gathers[ep.self], end-start)
	k := 0
	for _, p := range got {
		if p != nil {
			k++
		}
	}
	rw.deliveries.Add(int64(k))
	return got, err
}

// meshOpts selects the transport a timed runtime runner builds; it
// mirrors the runtime.RunnerOpts fields the workloads set.
type meshOpts struct {
	kind     string // "inproc", "tcp", "udp"
	algo     string
	loss     float64
	lossSeed int64
	meter    *transport.HeardMeter
	counters *transport.StallCounters
	perRound bool
}

// timedRuntime is runtime.NewRunner rebuilt from the public pieces it
// composes — MaterializeRun, NewSchedule, the transport constructors,
// FrameLoss, Metered and runtime.Run — so the transport and codec can
// be wrapped. Socket meshes are fully distributed (one node per
// process), as NewRunner builds them without Nodes. It records
// runtime.setup and runtime.run on t, materialization under setup, and
// the processes' calls on the returned meshRec.
func timedRuntime(t *seqTrace, o meshOpts, out **meshRec) func(rounds.Config) (*rounds.Result, error) {
	return func(cfg rounds.Config) (*rounds.Result, error) {
		t.open(lRuntimeSetup)
		n, err := cfg.Validate()
		if err != nil {
			t.close()
			return nil, err
		}
		alg, err := algo.Lookup(o.algo)
		if err != nil {
			t.close()
			return nil, err
		}
		t.open(lAdvMaterialize)
		sched := adversary.MaterializeRun(cfg.Adversary, cfg.MaxRounds)
		t.close()
		cfg.Adversary = sched
		pol := transport.NewSchedule(sched)
		var tr transport.Transport
		switch o.kind {
		case "inproc":
			tr = transport.NewInProc(n, pol)
		case "tcp":
			tr, err = transport.NewTCPMeshLoopbackOpts(n, n, pol, transport.TCPOpts{})
		case "udp":
			tr, err = transport.NewUDPMeshLoopback(n, n, pol, transport.UDPOpts{
				Meter: o.meter, Counters: o.counters, DropDatagram: transport.FrameLoss(o.loss, o.lossSeed),
			})
		default:
			err = fmt.Errorf("unknown transport kind %q", o.kind)
		}
		if err != nil {
			t.close()
			return nil, err
		}
		if o.meter != nil && o.kind != "udp" {
			tr = transport.Metered(tr, o.meter)
		}
		m := newMeshRec(n, cfg.MaxRounds, o.perRound)
		*out = m
		tr = wrapTransport(tr, m)
		timedFactory(&cfg, m)
		if o.perRound {
			inner := cfg.Observer
			cfg.Observer = rounds.ObserverFunc(func(r int, g *graph.Digraph, procs []rounds.Algorithm) {
				m.onRound()
				if inner != nil {
					inner.OnRound(r, g, procs)
				}
			})
		}
		t.close()
		t.open(lRuntimeRun)
		m.bounds = append(m.bounds, now())
		res, err := runtime.Run(cfg, tr, timedCodec{inner: alg.Codec, m: m})
		t.close()
		unwrapResult(res)
		return res, err
	}
}
