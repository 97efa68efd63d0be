// Package sim is the experiment driver: it wires an adversary, a
// registered algorithm family (internal/algo — Algorithm 1 by default,
// or a baseline), the skeleton tracker, the wire meter, and the outcome
// checker into one call (Execute), and runs parameter sweeps on a worker
// pool — either buffered (Sweep) or sharded-and-streaming (StreamSweep),
// which delivers outcomes to incremental aggregators in deterministic
// cell order without retaining per-trial records. All experiment tables
// in EXPERIMENTS.md are produced through this package (see cmd/ksetbench
// and bench_test.go).
package sim

import (
	"fmt"
	"sync"

	"kset/internal/algo"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/predicate"
	"kset/internal/rounds"
	"kset/internal/skeleton"
	"kset/internal/trace"
	"kset/internal/wire"
)

// Spec describes one simulation.
type Spec struct {
	// Adversary generates the run; required.
	Adversary rounds.Adversary
	// Algorithm names the registered algorithm family to execute; ""
	// means algo.Default ("kset", Algorithm 1). See internal/algo.
	Algorithm string
	// Proposals are the initial values; len must equal Adversary.N().
	Proposals []int64
	// Params carries the algorithm family's options (core.Options for
	// kset, approx.Options for approx); nil means the family defaults.
	// Resolve normalizes it in place.
	Params any
	// NewProcess optionally overrides the algorithm under test (e.g. a
	// baseline); when nil, the registered Algorithm family runs with
	// Proposals and Params.
	NewProcess func(self int) rounds.Algorithm
	// MaxRounds bounds the run; 0 means the family's automatic bound
	// (for kset, generous enough for Lemma 11: stabilization + 2n + 5,
	// or 12n without a Stabilizer).
	MaxRounds int
	// RunToCompletion keeps executing until MaxRounds even after all
	// processes decided (needed when later rounds are inspected).
	RunToCompletion bool
	// Concurrent selects the goroutine-per-process executor.
	Concurrent bool
	// Runner, if non-nil, overrides the executor entirely (taking
	// precedence over Concurrent). The distributed runtime plugs in here
	// (runtime.NewRunner), so the whole sim pipeline — skeleton tracker,
	// wire meter, outcome checks — runs unchanged over a real transport;
	// the differential harness compares such runs against the lockstep
	// executor. A Runner is single-use when it owns a transport: build a
	// fresh Spec per Execute call.
	Runner func(rounds.Config) (*rounds.Result, error)
	// MeterMessages measures encoded message sizes through the family's
	// wire codec (for kset, the internal/wire encoding the Section V
	// bit-complexity claim is stated in).
	MeterMessages bool
	// Observer, if non-nil, is notified after every round (in addition
	// to the skeleton tracker the driver installs).
	Observer rounds.Observer
}

// Outcome bundles the decision summary with skeleton- and wire-level
// measurements.
type Outcome struct {
	trace.Outcome
	// RST is the observed stabilization round of the skeleton (last
	// round that removed an edge; >= 1) — the paper's r_ST, the pivot of
	// the Lemma 11 termination bound r_ST + 2n - 1.
	RST int
	// RootComps is the number of root components of the stable skeleton;
	// Theorem 1 bounds it by MinK.
	RootComps int
	// MinK is the smallest k for which Psrcs(k) holds in this run — the
	// tightest decision-diversity bound the paper's theorems give it.
	// Exact for n <= 64 (and whenever the polynomial bounds pin it);
	// above that it is the certified clique-cover upper bound, so
	// distinct decisions <= MinK remains a sound check at every scale
	// (see minKOf).
	MinK int
	// Skeleton is the stable skeleton G^∩∞ of the run.
	Skeleton *graph.Digraph
	// Meter holds wire statistics when Spec.MeterMessages was set.
	Meter wire.Meter
	// Run is the resolved algorithm run (family name, normalized
	// params, stabilization data, round bound) when a registered family
	// executed; nil when Spec.NewProcess overrode the algorithm.
	// CheckAlgorithm evaluates the family's oracles against it.
	Run *algo.Run
	// Exempt marks processes that crashed undecided, which owe no
	// decision: CheckAlgorithm holds no termination oracle against them.
	// Execute leaves it nil; runtime.Replay sets it on the outcome its
	// oracles judge.
	Exempt []bool
	// Observer echoes Spec.Observer, so sweep consumers that attach
	// per-run instrumentation to a spec (e.g. the E15 stale-edge meter)
	// can read it back from the streamed outcome.
	Observer rounds.Observer
}

// meteredProc wraps Algorithm 1 to measure outgoing message sizes.
type meteredProc struct {
	*core.Process
	mu    *sync.Mutex
	meter *wire.Meter
}

// Send implements rounds.Algorithm; it feeds every outgoing (tag, x, G)
// message through the wire meter before broadcast, measuring the
// Section V bit-complexity claim without touching the algorithm.
func (m meteredProc) Send(r int) any {
	msg := m.Process.Send(r).(*core.Message)
	m.mu.Lock()
	m.meter.ObserveMessage(*msg)
	m.mu.Unlock()
	return msg
}

// meteredAlg is the family-generic metering wrapper: it measures each
// outgoing message by encoding it through the family's own codec —
// exactly the bytes the distributed runtime would put on the wire.
type meteredAlg struct {
	rounds.Algorithm
	rounds.Decider
	mu    *sync.Mutex
	codec algo.Codec
	buf   *[]byte
	meter *wire.Meter
}

// Send implements rounds.Algorithm.
func (m meteredAlg) Send(r int) any {
	msg := m.Algorithm.Send(r)
	m.mu.Lock()
	// Registration self-tests every codec against its family's own
	// messages, so an encode failure here cannot happen in a registered
	// family; an unmetered message is the safe degradation regardless.
	if b, err := m.codec.Encode((*m.buf)[:0], msg); err == nil {
		*m.buf = b
		m.meter.Observe(len(b))
	}
	m.mu.Unlock()
	return msg
}

// meteredFactory wraps a family's process factory with metering. The
// kset family keeps its historical wrapper (byte-identical meters are
// pinned by the E5 differential battery); other families meter through
// their codec.
func meteredFactory(alg *algo.Algorithm, inner func(int) rounds.Algorithm, meter *wire.Meter) func(int) rounds.Algorithm {
	var mu sync.Mutex
	if alg.Name == algo.KSet {
		return func(self int) rounds.Algorithm {
			return meteredProc{Process: inner(self).(*core.Process), mu: &mu, meter: meter}
		}
	}
	buf := new([]byte)
	return func(self int) rounds.Algorithm {
		p := inner(self)
		dec, ok := p.(rounds.Decider)
		if !ok {
			// A family with a custom Collect and no Decider cannot be
			// wrapped without hiding its real type; run it unmetered.
			return p
		}
		return meteredAlg{Algorithm: p, Decider: dec, mu: &mu, codec: alg.Codec, buf: buf, meter: meter}
	}
}

// Resolve normalizes the spec in place for its registered algorithm
// family: it validates the adversary and proposals, fills Params
// defaults through the family's Prepare hook, and computes the
// automatic MaxRounds bound. Execute calls it internally; the replay
// harness (runtime.Replay) calls it before materializing the schedule,
// so parameter defaults that depend on the adversary's stabilization
// round are identical in both executions. Resolve is idempotent.
func (s *Spec) Resolve() error {
	if s.Adversary == nil {
		return fmt.Errorf("sim: nil adversary")
	}
	n := s.Adversary.N()
	if s.NewProcess != nil {
		// Override runs (baselines) have no family; they take kset's bound.
		if s.MaxRounds == 0 {
			s.MaxRounds = algo.MustLookup(algo.KSet).MaxRounds(stabRun(s.Adversary))
		}
		return nil
	}
	if len(s.Proposals) != n {
		return fmt.Errorf("sim: %d proposals for %d processes", len(s.Proposals), n)
	}
	alg, err := algo.Lookup(s.Algorithm)
	if err != nil {
		return err
	}
	s.Algorithm = alg.Name
	run := s.algoRun(alg)
	if err := alg.Prepare(&run); err != nil {
		return err
	}
	s.Params = run.Params
	if s.MaxRounds == 0 {
		s.MaxRounds = alg.MaxRounds(run)
	}
	return nil
}

// algoRun assembles the family's run description from the spec and the
// adversary's stabilization data.
func (s *Spec) algoRun(alg *algo.Algorithm) algo.Run {
	run := stabRun(s.Adversary)
	run.Algorithm = alg.Name
	run.Proposals = s.Proposals
	run.Params = s.Params
	run.MaxRounds = s.MaxRounds
	return run
}

// stabRun is the adversary's part of a run description: its size and
// stabilization data.
func stabRun(adv rounds.Adversary) algo.Run {
	run := algo.Run{N: adv.N()}
	if st, ok := adv.(rounds.Stabilizer); ok {
		run.Stabilizes, run.Stab = true, st.StabilizationRound()
	}
	return run
}

// Execute runs one simulation.
func Execute(spec Spec) (*Outcome, error) {
	if err := spec.Resolve(); err != nil {
		return nil, err
	}
	n := spec.Adversary.N()

	out := &Outcome{Observer: spec.Observer}
	tracker := skeleton.NewTracker(n, false)

	factory := spec.NewProcess
	collect := trace.Collect
	if factory == nil {
		alg := algo.MustLookup(spec.Algorithm)
		run := spec.algoRun(alg)
		f, err := alg.NewFactory(run)
		if err != nil {
			return nil, err
		}
		factory = f
		collect = alg.Collect
		out.Run = &run
		if spec.MeterMessages {
			factory = meteredFactory(alg, factory, &out.Meter)
		}
	}

	var observer rounds.Observer = tracker
	if spec.Observer != nil {
		observer = rounds.MultiObserver{tracker, spec.Observer}
	}
	cfg := rounds.Config{
		Adversary:  spec.Adversary,
		NewProcess: factory,
		MaxRounds:  spec.MaxRounds,
		Observer:   observer,
	}
	if !spec.RunToCompletion {
		cfg.StopWhen = rounds.AllDecided
	}

	runner := rounds.RunSequential
	if spec.Concurrent {
		runner = rounds.RunConcurrent
	}
	if spec.Runner != nil {
		runner = spec.Runner
	}
	res, err := runner(cfg)
	if err != nil {
		return nil, err
	}

	oc, err := collect(res)
	if err != nil {
		return nil, err
	}
	out.Outcome = *oc

	// Prefer the adversary's exact stable skeleton (runs may stop before
	// the tracker has seen all transient edges disappear).
	if sp, ok := spec.Adversary.(interface{ StableSkeleton() *graph.Digraph }); ok {
		out.Skeleton = sp.StableSkeleton()
	} else {
		out.Skeleton = tracker.Skeleton()
	}
	out.RST = tracker.LastChange()
	if out.RST < 1 {
		out.RST = 1
	}
	out.RootComps = len(graph.RootComponents(out.Skeleton))
	out.MinK = minKOf(out.Skeleton)
	return out, nil
}

// CheckAlgorithm evaluates the executed family's whole-run oracles
// (validity, agreement/k-bound, termination — as the family defines
// them) against this outcome and returns the violations; nil when every
// oracle held, and nil for NewProcess-override runs, which have no
// registered oracle set. A violation means the algorithm, an executor,
// or a transport broke its contract — internal/check's whole-trace
// oracles and the service's per-session bound verdicts are built on
// this hook.
func (o *Outcome) CheckAlgorithm() []algo.Violation {
	if o.Run == nil {
		return nil
	}
	alg, err := algo.Lookup(o.Run.Algorithm)
	if err != nil || alg.Check == nil {
		return nil
	}
	oc := o.Outcome
	return alg.Check(*o.Run, algo.Facts{
		Outcome:   &oc,
		Skeleton:  o.Skeleton,
		RootComps: o.RootComps,
		MinK:      o.MinK,
		Exempt:    o.Exempt,
	})
}

// minKOf computes Outcome.MinK. The exact independence-number search is
// exponential in the worst case; past the 64-process single-word bitset
// regime, sparse shares-a-source graphs make it genuinely intractable
// (the n=128 differential suite hit hours-long searches). There the
// polynomial two-sided bounds stand in: when they pin the answer the
// value is still exact, and when they disagree the clique-cover upper
// bound is reported — the smallest k the harness can certify Psrcs(k)
// for in polynomial time. Every k-bound check (distinct decisions <=
// MinK) remains sound either way, because the exact MinK never exceeds
// the reported value.
func minKOf(skel *graph.Digraph) int {
	lo, hi := predicate.MinKBounds(skel)
	if lo == hi || skel.N() > 64 {
		return hi
	}
	return predicate.MinK(skel)
}

// SeqProposals returns the canonical distinct proposal vector
// 1, 2, ..., n.
func SeqProposals(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}
