package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"time"

	"kset/internal/adversary"
	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/runtime"
	"kset/internal/sim"
	"kset/internal/transport"
)

// tcp-mesh and udp-loss: fixed-length runs of a RandomSingleSource
// schedule on a fully distributed n = 8 loopback mesh (one node per
// process, the shape ksetd's socket sessions use). On TCP every round
// closes by count; on UDP with 10% injected frame loss nearly every
// round closes by the transport's default deadline.

const (
	meshN   = 8
	udpLoss = 0.1
)

// meshRounds is the length of one run. TCP runs are longer so that a
// run's 56 loopback connections are opened at a rate the kernel's
// TIME_WAIT port reuse keeps up with across back-to-back benchmark
// runs; UDP rounds are deadline-bound and need fewer rounds per run.
var meshRounds = map[string]int{"tcp": 1000, "udp": 200}

// meshInputs are the generated inputs: a pool of schedules that runs
// cycle through, and a loss seed per run.
type meshInputs struct {
	scheds []*adversary.Run
	seed   int64
	rounds int // per run
}

func genMeshInputs(seed int64, pool, rounds int) meshInputs {
	in := meshInputs{seed: seed, rounds: rounds}
	for i := 0; i < pool; i++ {
		rng := rand.New(rand.NewSource(adversary.MixSeed(seed, i)))
		in.scheds = append(in.scheds, adversary.RandomSingleSource(meshN, 0, 0.2, 0, rng))
	}
	return in
}

func (in meshInputs) sched(run int) *adversary.Run { return in.scheds[run%len(in.scheds)] }

// lossSeed is run's RunnerOpts.LossSeed, derived from the workload seed.
func (in meshInputs) lossSeed(run int) int64 { return adversary.MixSeed(^in.seed, run) }

// digest covers every schedule's round graphs up to the run length and
// the loss seeds of the first pool-many runs.
func (in meshInputs) digest() string {
	h := sha256.New()
	var b [8]byte
	for i, s := range in.scheds {
		for r := 1; r <= min(in.rounds, s.StabilizationRound()); r++ {
			for _, e := range s.Graph(r).Edges() {
				binary.LittleEndian.PutUint64(b[:], uint64(r)<<32|uint64(e.From)<<16|uint64(e.To))
				h.Write(b[:])
			}
		}
		binary.LittleEndian.PutUint64(b[:], uint64(in.lossSeed(i)))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// meshRun is one executed run and what the checks need from it.
type meshRun struct {
	out       *sim.Outcome
	setup     float64   // s, Execute start -> transport built
	exec      float64   // s, transport built -> Execute returned
	roundAt   []int64   // OnRound times from the second round on
	roundGaps []float64 // µs between consecutive Observer.OnRound calls
	realized  []*graph.Digraph
}

func meshSpec(in meshInputs, i int, obs rounds.Observer) sim.Spec {
	return sim.Spec{
		Adversary:       in.sched(i),
		Proposals:       sim.SeqProposals(meshN),
		MaxRounds:       in.rounds,
		RunToCompletion: true,
		Observer:        obs,
	}
}

// roundClock records Observer.OnRound times.
type roundClock []int64

func (c *roundClock) OnRound(int, *graph.Digraph, []rounds.Algorithm) { *c = append(*c, now()) }

func (c roundClock) gaps() []float64 {
	var out []float64
	for i := 1; i < len(c); i++ {
		out = append(out, float64(c[i]-c[i-1])/1e3)
	}
	return out
}

// runMeshOnce executes run i through runtime.NewRunner, untraced.
func runMeshOnce(kind string, in meshInputs, i int) (*meshRun, error) {
	meter := transport.NewHeardMeter(meshN)
	var ready int64
	opts := runtime.RunnerOpts{Kind: kind, Meter: meter, OnTransport: func(transport.Transport) { ready = now() }}
	if kind == "udp" {
		opts.Loss, opts.LossSeed = udpLoss, in.lossSeed(i)
	}
	var clk roundClock
	spec := meshSpec(in, i, &clk)
	spec.Runner = runtime.NewRunner(opts)
	start := now()
	out, err := sim.Execute(spec)
	end := now()
	if err != nil {
		return nil, err
	}
	return &meshRun{
		out: out, setup: float64(ready-start) / 1e9, exec: float64(end-ready) / 1e9,
		roundAt: clk[1:], roundGaps: clk.gaps(), realized: meter.Graphs(),
	}, nil
}

// checkMeshRun verifies a live run against the round model: the
// realized heard-sets lie inside the schedule (plus self-loops), and
// replaying them through the lockstep simulator reproduces every
// decision, decision round and the round count. On TCP the realized
// graphs are the schedule, so the family oracles apply to the live
// outcome directly. It returns the failures and the number of
// scheduled links the wire lost.
func checkMeshRun(kind string, in meshInputs, i int, run *meshRun) (fails []string, lost int) {
	out, sched := run.out, in.sched(i)
	if len(run.realized) != out.Rounds || out.Rounds != in.rounds {
		return []string{fmt.Sprintf("meter recorded %d rounds, run executed %d of %d", len(run.realized), out.Rounds, in.rounds)}, 0
	}
	for r := 1; r <= out.Rounds; r++ {
		g, want := run.realized[r-1], sched.Graph(r)
		for p := 0; p < meshN; p++ {
			for q := 0; q < meshN; q++ {
				s := want.HasEdge(p, q) || p == q
				switch got := g.HasEdge(p, q); {
				case got && !s:
					fails = append(fails, fmt.Sprintf("round %d: p%d heard p%d through a link the schedule drops", r, q+1, p+1))
				case s && !got:
					lost++
				}
			}
		}
	}
	replay, err := sim.Execute(sim.Spec{
		Adversary:       adversary.NewRun(run.realized[:out.Rounds-1], run.realized[out.Rounds-1]),
		Proposals:       sim.SeqProposals(meshN),
		MaxRounds:       out.Rounds,
		RunToCompletion: true,
	})
	if err != nil {
		return append(fails, fmt.Sprintf("replay: %v", err)), lost
	}
	if outcomeKey(&replay.Outcome) != outcomeKey(&out.Outcome) {
		fails = append(fails, fmt.Sprintf("replay of the realized graphs decided %v (rounds %v), live run %v (rounds %v)",
			replay.Decisions, replay.DecideRounds, out.Decisions, out.DecideRounds))
	}
	if err := out.CheckTermination(); err != nil {
		fails = append(fails, err.Error())
	}
	if err := out.CheckValidity(); err != nil {
		fails = append(fails, err.Error())
	}
	if kind == "tcp" {
		for _, v := range out.CheckAlgorithm() {
			fails = append(fails, v.String())
		}
	}
	return fails, lost
}

// meshPass is the untraced measurement.
type meshPass struct {
	runs         int
	setups       []float64
	roundRates   []float64 // per run, rounds/s after mesh set-up
	runRates     []float64 // per run, 1/(set-up + execution)
	wall         float64   // s, summed set-up + execution
	gapAt        []int64
	gaps         []float64
	keys         []uint64
	realizedKeys []uint64
}

func runMesh(p params, kind string) (*report, error) {
	rep := newReport()
	// Runs take fresh schedules until the pool wraps, so the mean
	// schedule density of a measurement varies little from seed to seed.
	pool, rounds := 64, meshRounds[kind]
	if p.small {
		pool, rounds = 2, 20
	}
	var in meshInputs
	var gens []float64
	for i := 0; i < setupReps; i++ {
		goruntime.GC()
		t := now()
		in = genMeshInputs(p.seed, pool, rounds)
		gens = append(gens, float64(now()-t)/1e9)
	}
	gen := median(gens)
	rep.printf("inputs sha256:%s (%d RandomSingleSource schedules, n=%d, %d rounds per run, loss %v)", in.digest(), pool, meshN, in.rounds, map[string]float64{"tcp": 0, "udp": udpLoss}[kind])

	window := p.seconds
	if p.trace {
		window /= 2
	}
	pass := &meshPass{}
	end := deadline(window)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		run, err := runMeshOnce(kind, in, i)
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		pass.runs++
		pass.setups = append(pass.setups, run.setup)
		pass.roundRates = append(pass.roundRates, float64(run.out.Rounds)/run.exec)
		pass.runRates = append(pass.runRates, 1/(run.setup+run.exec))
		pass.wall += run.setup + run.exec
		pass.gapAt = append(pass.gapAt, run.roundAt...)
		pass.gaps = append(pass.gaps, run.roundGaps...)
		if i == 0 && p.breakCheck {
			run.out.Decisions[0] = -1 // self-test: a wrong output must be caught
		}
		pass.keys = append(pass.keys, outcomeKey(&run.out.Outcome))
		pass.realizedKeys = append(pass.realizedKeys, graphsKey(run.realized))
		rep.attempted++
		fails, _ := checkMeshRun(kind, in, i, run)
		for _, f := range fails {
			rep.fail("run %d: %s", i, f)
		}
	}
	rep.values["runs_per_sec"] = median(pass.runRates)
	rep.values["rounds_per_sec"] = median(pass.roundRates)
	l := latencyWindows(pass.gapAt, pass.gaps)
	rep.values["latency_p50_ms"], rep.values["latency_p90_ms"] = l.p50/1e3, l.p90/1e3
	rep.values["setup_s"] = gen + median(pass.setups)
	rep.printf("rounds_per_sec %.1f rounds/s (median over %d runs of %d rounds, mesh set-up excluded)", rep.values["rounds_per_sec"], pass.runs, in.rounds)
	rep.printf("runs_per_sec %.2f runs/s (median over runs, mesh set-up included)", rep.values["runs_per_sec"])
	rep.printf("round_p50_us %.1f us, round_p90_us %.1f us, round_p95_us %.1f us, round_p99_us %.1f us (between consecutive OnRound calls, n=%d, median of %d windows)",
		l.p50, l.p90, l.p95, l.p99, len(pass.gaps), l.windows)
	rep.printf("setup_s %.6f s (median input generation %.6f s + median mesh construction %.6f s over %d runs)",
		rep.values["setup_s"], gen, median(pass.setups), len(pass.setups))
	if !p.trace {
		return rep, nil
	}
	return rep, tracedMesh(p, rep, kind, in, pass)
}

// graphsKey hashes a run's realized graphs.
func graphsKey(gs []*graph.Digraph) uint64 {
	var key uint64 = 14695981039346656037
	for r, g := range gs {
		for _, e := range g.Edges() {
			key ^= uint64(r)<<32 | uint64(e.From)<<16 | uint64(e.To)
			key *= 1099511628211
		}
	}
	return key
}

// tracedMesh re-executes the untraced pass's runs with every layer
// timed, through timedRuntime. On TCP every run must decide exactly as
// untraced; on UDP that holds whenever the wire realized the same
// graphs (which frames miss the deadline can depend on timing), and
// every run, traced or not, is replay-checked.
func tracedMesh(p params, rep *report, kind string, in meshInputs, base *meshPass) error {
	var runs, rnds ledger
	var gathers []float64
	var stalls, deliveries, decodes int64
	lost, compared := 0, 0
	sw, err := newSpanWriter(p.spansDir, fmt.Sprintf("%s-mesh-seed%d.tsv", kind, p.seed))
	if err != nil {
		return err
	}
	var elapsed float64
	for i := 0; i < base.runs; i++ {
		meter := transport.NewHeardMeter(meshN)
		var counters transport.StallCounters
		var m *meshRec
		o := meshOpts{kind: kind, meter: meter, counters: &counters, perRound: true}
		if kind == "udp" {
			o.loss, o.lossSeed = udpLoss, in.lossSeed(i)
		}
		t := newSeqTrace("run", i)
		spec := meshSpec(in, i, nil)
		spec.Runner = timedRuntime(t, o, &m)
		t.open(lSimExecute)
		out, err := sim.Execute(spec)
		t.close()
		u := t.finish()
		if err != nil {
			return fmt.Errorf("traced run %d: %w", i, err)
		}
		elapsed += float64(u.dur) / 1e9
		rep.attempted++
		run := &meshRun{out: out, realized: meter.Graphs()}
		fails, l := checkMeshRun(kind, in, i, run)
		for _, f := range fails {
			rep.fail("traced run %d: %s", i, f)
		}
		lost += l
		stalls += counters.Stalls.Load()
		if kind == "tcp" || graphsKey(run.realized) == base.realizedKeys[i] {
			compared++
			if outcomeKey(&out.Outcome) != base.keys[i] {
				rep.fail("traced run %d decided differently from the untraced run", i)
			}
		}
		// Round units: each round's span is the interval between two
		// OnRound calls; the processes' calls in it are its lanes.
		var roundsDur int64
		for r := 1; r < len(m.bounds); r++ {
			ru := &unit{kind: "round", id: i*in.rounds + r, root: lRuntimeRun, dur: m.bounds[r] - m.bounds[r-1]}
			m.fold(ru, r-1, lRuntimeRun)
			roundsDur += ru.dur
			deliveries += m.rows[r-1].deliveries.Load()
			decodes += m.rows[r-1].calls[lWireDecode].Load()
			rnds.add(ru)
			sw.write(ru)
		}
		u.add(lRounds, lRuntimeRun, 1, int64(len(m.bounds)-1), roundsDur)
		runs.add(u)
		sw.write(u)
		gathers = appendGathers(gathers, m)
	}
	if err := sw.close(); err != nil {
		return err
	}
	// Per-round metrics: the run-level layers (set-up, materialization,
	// the runtime's time outside rounds, verification) are spread over
	// the rounds they served.
	all := rnds
	all.merge(&runs)
	fillLayerMetrics(rep, &all, nil)
	rounds := float64(rnds.units)
	rep.values["transport.gather_wait_p50_us"] = quantile(gathers, 0.5)
	rep.values["transport.gather_wait_p99_us"] = quantile(gathers, 0.99)
	rep.values["transport.stalls_per_round"] = float64(stalls) / rounds
	rep.values["transport.lost_links_per_round"] = float64(lost) / rounds
	if deliveries > 0 {
		rep.values["wire.decodes_per_delivery"] = float64(decodes) / float64(deliveries)
	}
	rep.values["trace.overhead_pct"] = 100 * (elapsed/base.wall - 1)
	rep.printf("traced %d runs (%d rounds) in %.2fs, untraced %.2fs; %d compared decision-for-decision with the untraced run",
		base.runs, rnds.units, elapsed, base.wall, compared)
	checkLedger(rep, &rnds, "round")
	checkLedger(rep, &runs, "run")
	return nil
}

// appendGathers appends every Gather duration m recorded, in µs.
func appendGathers(dst []float64, m *meshRec) []float64 {
	for _, gs := range m.gathers {
		for _, d := range gs {
			dst = append(dst, float64(d)/1e3)
		}
	}
	return dst
}
