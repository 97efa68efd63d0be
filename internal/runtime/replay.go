package runtime

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/graph"
	"kset/internal/runfile"
	"kset/internal/sim"
	"kset/internal/transport"
)

// ReplayOpts configures one Replay: the live transport and the faults
// injected into it. The heard meter belongs to Replay; the codec and the
// round bound come from the spec's algorithm family.
type ReplayOpts struct {
	// Kind selects the live transport: "inproc" (default), "tcp", or
	// "udp". On "udp" a zero UDP.RoundTimeout takes the service's
	// loopback timing (250ms deadline, 2ms grace), under which a quiet
	// loopback loses nothing and the comparison stays bit-exact.
	Kind string
	// Nodes groups the processes onto this many mesh nodes for the
	// socket transports (0 = one per process); see RunnerOpts.Nodes.
	// Silent crash plans need one process per node.
	Nodes int
	// UDP configures the datagram mesh; its Meter must be nil.
	UDP transport.UDPOpts
	// TCP tunes the TCP mesh; under a silent crash plan its Stall knobs
	// must enable chaos mode or the run wedges on the dead peer.
	TCP transport.TCPOpts
	// Loss injects i.i.d. frame loss on the UDP mesh, seeded by
	// LossSeed; see RunnerOpts.Loss.
	Loss     float64
	LossSeed int64
	// Jitter injects deterministic per-link receive latency in
	// [0, Jitter), seeded by JitterSeed, to prove timing skew cannot
	// leak into decisions.
	Jitter     time.Duration
	JitterSeed int64
	// Crash kills processes at planned rounds and sites (see CrashPlan);
	// Stall delays senders without killing them (see StallPlan). Either
	// may be nil.
	Crash *CrashPlan
	Stall *StallPlan
	// ArtifactDir, when non-empty, receives a .ksr runfile of the
	// realized graphs whenever the replay diverges from the live run.
	ArtifactDir string
}

// ReplayReport is the evidence one Replay produced.
type ReplayReport struct {
	// Live is the outcome of the run over the real transport.
	Live *sim.Outcome
	// Replay is the lockstep simulator's outcome on the realized
	// heard-sets, identical to Live for every process the comparison
	// covers.
	Replay *sim.Outcome
	// Realized holds the per-round heard-set graphs the processes
	// actually gathered, self-loops restored for the dead.
	Realized []*graph.Digraph
	// LostLinks counts scheduled deliveries the wire lost beyond the
	// crash cut (0 on reliable transports).
	LostLinks int
	// Crashed is the number of processes the crash plan killed.
	Crashed int
	// Distinct is the number of distinct values decided in the live run
	// (pre-crash decisions of the dead included: a decision is
	// irrevocable even when its process is not).
	Distinct int
	// Violations are the family's own oracles evaluated on the live
	// decisions against the realized skeleton. Processes that crashed
	// undecided owe no decision.
	Violations []algo.Violation
	// KBound reports that the family's agreement oracle held ("k-bound"
	// for kset, "agreement" for approx). It is a report field rather
	// than an error because the bound is a theorem only for the repaired
	// decision guard: the E10 witness deliberately violates it, and the
	// harness's job there is to detect the violation.
	KBound bool
	// Artifact is the path of the divergence runfile, when one was
	// written.
	Artifact string
}

// Replay is the differential harness. It proves that a live run over a
// real transport — with lost frames, dead processes, deadline-closed
// rounds — is bit for bit an execution of the paper's round model on the
// communication pattern it realized. The round model treats both fault
// kinds alike: a lossy round is a sparser round graph, and a crashed
// process is an isolated, self-looped node of the stable skeleton.
//
//  1. Resolve spec through the algorithm registry, so the family's
//     parameters and round bound key off the genuine stabilization
//     data, then materialize the schedule once.
//  2. Run live over a metered transport; the meter records exactly
//     which deliveries each gathering process obtained.
//  3. Check containment: realized heard-sets never exceed the schedule
//     restricted by the crash cut, and the dead record nothing.
//  4. Restore the dead processes' self-loops.
//  5. Replay through the lockstep simulator: on the schedule itself when
//     nothing was lost or killed, otherwise on the realized graphs.
//  6. Compare. Every decision bit, value and round must match; only a
//     process that crashed undecided is exempt, since its replay twin
//     outlives it. A lossless crash-free run must match in full
//     (CompareOutcomes: skeleton, MinK and wire meter too).
//  7. Evaluate the family's oracles on the realized run.
//  8. On divergence, write the realized graphs to ArtifactDir.
func Replay(spec sim.Spec, opts ReplayOpts) (*ReplayReport, error) {
	if opts.UDP.Meter != nil {
		return nil, fmt.Errorf("runtime: Replay owns the heard meter; UDP.Meter must be nil")
	}
	// Resolve before materialization can change the StabilizationRound
	// answer; Execute re-resolving the spec below is a no-op.
	if err := spec.Resolve(); err != nil {
		return nil, fmt.Errorf("runtime: Replay resolve: %w", err)
	}
	n, plan := spec.Adversary.N(), opts.Crash
	if err := plan.validate(n); err != nil {
		return nil, err
	}
	if plan.Crashes() >= n {
		return nil, fmt.Errorf("runtime: crash plan kills all %d processes; need a survivor to meter the run", n)
	}
	sched := adversary.MaterializeRun(spec.Adversary, spec.MaxRounds)
	spec.Adversary = sched

	meter := transport.NewHeardMeter(n)
	ro := RunnerOpts{
		Kind:       opts.Kind,
		Nodes:      opts.Nodes,
		UDP:        opts.UDP,
		TCPOpts:    opts.TCP,
		Loss:       opts.Loss,
		LossSeed:   opts.LossSeed,
		Jitter:     opts.Jitter,
		JitterSeed: opts.JitterSeed,
		Crash:      plan,
		Stall:      opts.Stall,
		Algorithm:  spec.Algorithm,
		Meter:      meter,
	}
	if ro.Kind == "udp" && ro.UDP.RoundTimeout == 0 {
		ro.UDP.RoundTimeout, ro.UDP.Grace = 250*time.Millisecond, 2*time.Millisecond
	}
	live := spec
	live.Runner = NewRunner(ro)
	liveOut, err := sim.Execute(live)
	if err != nil {
		return nil, fmt.Errorf("runtime: Replay live execution: %w", err)
	}
	realized := meter.Graphs()
	if len(realized) != liveOut.Rounds || liveOut.Rounds < 1 {
		return nil, fmt.Errorf("runtime: meter recorded %d rounds, live run executed %d", len(realized), liveOut.Rounds)
	}
	lost, err := contained(realized, sched, plan)
	if err != nil {
		return nil, err
	}
	// A crashed node stays internally correct in the paper's model (it
	// hears itself); every other edge of the dead stays absent, so the
	// replay twin of a dead process runs on in isolation.
	for _, g := range realized {
		g.AddSelfLoops()
	}
	run := adversary.NewRun(realized[:liveOut.Rounds-1], realized[liveOut.Rounds-1])

	exact := lost == 0 && plan.Crashes() == 0
	replay := spec
	replay.Runner, replay.Concurrent = nil, false
	if !exact {
		replay.Adversary, replay.MaxRounds = run, liveOut.Rounds
	}
	replayOut, err := sim.Execute(replay)
	if err != nil {
		return nil, fmt.Errorf("runtime: Replay reference execution: %w", err)
	}

	rep := &ReplayReport{
		Live:      liveOut,
		Replay:    replayOut,
		Realized:  realized,
		LostLinks: lost,
		Crashed:   plan.Crashes(),
		Distinct:  len(liveOut.DistinctDecisions()),
	}
	// Died undecided: its replay twin outlives it and may decide.
	exempt := make([]bool, n)
	for i := range exempt {
		exempt[i] = !plan.gathers(i, liveOut.Rounds) && !liveOut.Decided[i]
	}
	cmp := compareDecisions(replayOut, liveOut, exempt)
	if cmp == nil && exact {
		cmp = CompareOutcomes(replayOut, liveOut)
	}
	if cmp != nil {
		err := fmt.Errorf("runtime diverged from simulator: %w", cmp)
		if opts.ArtifactDir != "" {
			if path, werr := writeDivergence(opts.ArtifactDir, run); werr == nil {
				rep.Artifact = path
				err = fmt.Errorf("%w (realized graphs: %s)", err, path)
			}
		}
		return rep, err
	}

	judged := *replayOut
	judged.Outcome, judged.Exempt = liveOut.Outcome, exempt
	rep.Violations = judged.CheckAlgorithm()
	rep.KBound = true
	for _, v := range rep.Violations {
		if v.Oracle == "k-bound" || v.Oracle == "agreement" {
			rep.KBound = false
		}
	}
	return rep, nil
}

// Diff is Replay's lossless, crash-free case: spec runs over a reliable
// (or quiet) transport, the realized run must equal the schedule with
// zero lost links, and the live outcome must equal sim.Execute's on the
// same schedule in every decision-relevant field.
func Diff(spec sim.Spec, opts ReplayOpts) error {
	if opts.Crash != nil || opts.Loss > 0 {
		return fmt.Errorf("runtime: Diff is the lossless crash-free replay; use Replay for faults")
	}
	rep, err := Replay(spec, opts)
	if err != nil {
		return err
	}
	if rep.LostLinks != 0 {
		return fmt.Errorf("runtime: Diff lost %d scheduled deliveries", rep.LostLinks)
	}
	return nil
}

// contained checks that the realized graphs never exceed the schedule
// restricted by the crash cut (the wire can lose deliveries, never invent
// them; self-delivery is unconditional) and counts the scheduled
// deliveries that were lost. A receiver that is dead, or dying this
// round — a crashing process never gathers its crash round — records
// nothing.
func contained(realized []*graph.Digraph, sched *adversary.Run, plan *CrashPlan) (int, error) {
	lost, n := 0, sched.N()
	for r := 1; r <= len(realized); r++ {
		g, want := realized[r-1], sched.Graph(r)
		for q := 0; q < n; q++ {
			gathering := plan.gathers(q, r)
			for p := 0; p < n; p++ {
				got := g.HasEdge(p, q)
				if !gathering {
					if got {
						return 0, fmt.Errorf("runtime: round %d: dead p%d recorded a delivery from p%d", r, q+1, p+1)
					}
					continue
				}
				switch s := (want.HasEdge(p, q) || p == q) && plan.Sends(r, p, q); {
				case got && !s:
					return 0, fmt.Errorf("runtime: round %d: wire delivered p%d->p%d through a dropped link", r, p+1, q+1)
				case s && !got:
					lost++
				}
			}
		}
	}
	return lost, nil
}

// compareDecisions reports the first difference in round count or in a
// non-exempt process's decision bit, value, or round between a
// simulator outcome and a runtime outcome.
func compareDecisions(want, got *sim.Outcome, exempt []bool) error {
	if want.N != got.N {
		return fmt.Errorf("n: sim %d, runtime %d", want.N, got.N)
	}
	if want.Rounds != got.Rounds {
		return fmt.Errorf("rounds executed: sim %d, runtime %d", want.Rounds, got.Rounds)
	}
	for i := 0; i < want.N; i++ {
		if exempt != nil && exempt[i] {
			continue
		}
		if want.Decided[i] != got.Decided[i] {
			return fmt.Errorf("p%d decided: sim %v, runtime %v", i+1, want.Decided[i], got.Decided[i])
		}
		if !want.Decided[i] {
			continue
		}
		if want.Decisions[i] != got.Decisions[i] {
			return fmt.Errorf("p%d decision: sim %d, runtime %d", i+1, want.Decisions[i], got.Decisions[i])
		}
		if want.DecideRounds[i] != got.DecideRounds[i] {
			return fmt.Errorf("p%d decision round: sim %d, runtime %d", i+1, want.DecideRounds[i], got.DecideRounds[i])
		}
	}
	return nil
}

// CompareOutcomes reports the first difference between a simulator
// outcome and a runtime outcome of the same spec, or nil if they are
// identical in every decision-relevant field.
func CompareOutcomes(want, got *sim.Outcome) error {
	if err := compareDecisions(want, got, nil); err != nil {
		return err
	}
	if want.RST != got.RST {
		return fmt.Errorf("r_ST: sim %d, runtime %d", want.RST, got.RST)
	}
	if want.RootComps != got.RootComps {
		return fmt.Errorf("root components: sim %d, runtime %d", want.RootComps, got.RootComps)
	}
	if want.MinK != got.MinK {
		return fmt.Errorf("MinK: sim %d, runtime %d", want.MinK, got.MinK)
	}
	if !want.Skeleton.Equal(got.Skeleton) {
		return fmt.Errorf("stable skeleton: sim %v, runtime %v", want.Skeleton, got.Skeleton)
	}
	if want.Meter.Messages > 0 || got.Meter.Messages > 0 {
		if want.Meter != got.Meter {
			return fmt.Errorf("wire meter: sim %+v, runtime %+v", want.Meter, got.Meter)
		}
	}
	return nil
}

// writeDivergence persists a realized run as a replayable .ksr runfile
// named by a hash of its bytes, so distinct divergences sharing one
// directory never overwrite each other.
func writeDivergence(dir string, run *adversary.Run) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b := runfile.Encode(run)
	sum := sha256.Sum256(b)
	path := filepath.Join(dir, fmt.Sprintf("divergence-%x.ksr", sum[:8]))
	return path, os.WriteFile(path, b, 0o644)
}
