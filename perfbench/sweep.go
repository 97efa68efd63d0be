package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/sim"
	"kset/internal/trace"
)

// sim-sweep: sim.StreamSweep with one worker per CPU over cells that
// cycle n over {16, 32, 48} and three adversary families. This is the
// researchers' path (ksetbench's E-tables, the checker): lockstep
// execution with no codec, transport or service.

var sweepNs = [...]int{16, 32, 48}

const (
	famSources = iota
	famVertexStable
	famTInterval
	numSweepFams
)

var sweepFamNames = [numSweepFams]string{"random_sources", "vertex_stable", "tinterval"}

type sweepCell struct {
	n    int
	fam  int
	seed int64
}

// sweepCells generates the sweep's input table: cell i cycles n fastest
// and the family next, so every (n, family) pair recurs every nine
// cells, each with its own seed.
func sweepCells(seed int64, count int) []sweepCell {
	cells := make([]sweepCell, count)
	for i := range cells {
		cells[i] = sweepCell{
			n:    sweepNs[i%len(sweepNs)],
			fam:  (i / len(sweepNs)) % numSweepFams,
			seed: sim.CellSeed(seed, i),
		}
	}
	return cells
}

func sweepDigest(cells []sweepCell) string {
	h := sha256.New()
	var b [8]byte
	for _, c := range cells {
		binary.LittleEndian.PutUint64(b[:], uint64(c.n)<<8|uint64(c.fam))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(c.seed))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// sweepSpec builds cell c's simulation. It runs Algorithm 1 with the
// paper's published decision guard, as the E4/E16 sweeps do: Lemma 11's
// termination bound is stated for that guard (the repaired
// ConservativeDecide guard trades a constant factor of termination
// time for the k-bound and may decide a round or two past it).
func sweepSpec(c sweepCell) sim.Spec {
	var spec sim.Spec
	switch c.fam {
	case famSources:
		rng := rand.New(rand.NewSource(c.seed))
		spec.Adversary = adversary.RandomSources(c.n, 1+rng.Intn(3), rng.Intn(c.n), 0.25, rng)
	case famVertexStable:
		spec.Adversary = adversary.NewVertexStableRoot(c.n, 2+c.n/8, 0.3, c.seed)
	case famTInterval:
		spec.Adversary = adversary.NewTInterval(c.n, 4, 2*c.n, 3, c.seed)
	}
	spec.Proposals = sim.SeqProposals(c.n)
	spec.Params = core.Options{}
	return spec
}

// checkSweepOutcome applies the family oracles and Lemma 11's
// termination bound (last decision <= r_ST + 2n - 1) and returns the
// failures.
func checkSweepOutcome(cell int, c sweepCell, out *sim.Outcome) []string {
	if v := out.CheckAlgorithm(); len(v) > 0 {
		return []string{fmt.Sprintf("cell %d (%s n=%d): %v", cell, sweepFamNames[c.fam], c.n, v)}
	}
	if last, bound := out.MaxDecisionRound(), out.RST+2*c.n-1; last > bound {
		return []string{fmt.Sprintf("cell %d (%s n=%d): Lemma 11: last decision round %d > r_ST+2n-1 = %d",
			cell, sweepFamNames[c.fam], c.n, last, bound)}
	}
	return nil
}

// outcomeKey hashes everything an execution decides: rounds, and every
// process's decided flag, decision and decision round.
func outcomeKey(o *trace.Outcome) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(int64(o.Rounds))
	for i := range o.Decisions {
		d := int64(0)
		if o.Decided[i] {
			d = 1
		}
		put(d)
		put(o.Decisions[i])
		put(int64(o.DecideRounds[i]))
	}
	return h.Sum64()
}

var errTimeUp = errors.New("measured window over")

// sweepPass is one untraced StreamSweep over cells until the window
// closes.
type sweepPass struct {
	delivered int
	t0        int64
	at        []int64   // delivery times
	rounds    []int     // per delivered run
	latencies []float64 // ms, Spec call -> delivery
	keys      []uint64
}

// elapsed is the pass's duration to its last delivery, in seconds.
func (s *sweepPass) elapsed() float64 { return float64(s.at[len(s.at)-1]-s.t0) / 1e9 }

func runSweepPass(p params, rep *report, cells []sweepCell, seconds float64) (*sweepPass, error) {
	starts := make([]int64, len(cells))
	res := &sweepPass{t0: now()}
	end := deadline(seconds)
	err := sim.StreamSweep(sim.StreamConfig{
		Cells:   len(cells),
		Workers: goruntime.NumCPU(),
		Spec: func(cell int) (sim.Spec, error) {
			starts[cell] = now()
			return sweepSpec(cells[cell]), nil
		},
		OnOutcome: func(cell int, out *sim.Outcome) error {
			t := now()
			res.at = append(res.at, t)
			res.latencies = append(res.latencies, float64(t-starts[cell])/1e6)
			res.delivered++
			res.rounds = append(res.rounds, out.Rounds)
			res.keys = append(res.keys, outcomeKey(&out.Outcome))
			if cell == 0 && p.breakCheck {
				out.Decisions[0] = -1 // self-test: a wrong output must be caught
			}
			for _, f := range checkSweepOutcome(cell, cells[cell], out) {
				rep.fail("%s", f)
			}
			if time.Now().After(end) {
				return errTimeUp
			}
			return nil
		},
	})
	if err != nil && !errors.Is(err, errTimeUp) {
		return nil, err
	}
	return res, nil
}

func runSimSweep(p params) (*report, error) {
	rep := newReport()
	pool := 1 << 16
	if p.small {
		pool = 64
	}
	// Set-up: generating the cell table, repeated to take a median.
	var setups []float64
	var cells []sweepCell
	for i := 0; i < setupReps; i++ {
		goruntime.GC()
		t := now()
		cells = sweepCells(p.seed, pool)
		setups = append(setups, float64(now()-t)/1e9)
	}
	rep.values["setup_s"] = median(setups)
	rep.printf("inputs sha256:%s (%d cells, n in %v, families %v)", sweepDigest(cells), len(cells), sweepNs, sweepFamNames)
	window := p.seconds
	if p.trace {
		window /= 2
	}
	pass, err := runSweepPass(p, rep, cells, window)
	if err != nil {
		return nil, err
	}
	rep.attempted += pass.delivered
	// Outcomes arrive in shards of 16 cells, too coarse for windowed
	// rates; throughput is taken over the whole pass.
	rounds := 0
	for _, r := range pass.rounds {
		rounds += r
	}
	rep.values["runs_per_sec"] = float64(pass.delivered) / pass.elapsed()
	rep.values["rounds_per_sec"] = float64(rounds) / pass.elapsed()
	l := latencyWindows(pass.at, pass.latencies)
	rep.values["latency_p50_ms"], rep.values["latency_p90_ms"] = l.p50, l.p90
	rep.printf("runs_per_sec %.2f runs/s (%d runs in %.2fs, %d workers)",
		rep.values["runs_per_sec"], pass.delivered, pass.elapsed(), goruntime.NumCPU())
	rep.printf("rounds_per_sec %.1f rounds/s", rep.values["rounds_per_sec"])
	rep.printf("run_p50_ms %.3f ms, run_p90_ms %.3f ms, run_p95_ms %.3f ms, run_p99_ms %.3f ms (Spec -> OnOutcome, n=%d, median of %d windows)",
		l.p50, l.p90, l.p95, l.p99, len(pass.latencies), l.windows)
	rep.printf("setup_s %.6f s (median of %d)", rep.values["setup_s"], len(setups))
	if !p.trace {
		return rep, nil
	}
	return rep, tracedSweep(p, rep, cells, pass)
}

// tracedSweep re-executes the cells the untraced pass delivered, with
// every layer timed, on one worker per CPU calling sim.Execute (the
// call StreamSweep makes per cell; StreamSweep itself has no hook after
// Execute returns). Each cell must decide exactly as in the untraced
// pass.
func tracedSweep(p params, rep *report, cells []sweepCell, base *sweepPass) error {
	k := base.delivered
	units := make([]*unit, k)
	keys := make([]uint64, k)
	errs := make([]error, k)
	fails := make([][]string, k)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := now()
	for w := 0; w < goruntime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= k {
					return
				}
				units[i], keys[i], fails[i], errs[i] = tracedSweepCell(i, cells[i])
			}
		}()
	}
	wg.Wait()
	elapsed := float64(now()-t0) / 1e9
	var g ledger
	sw, err := newSpanWriter(p.spansDir, fmt.Sprintf("sim-sweep-seed%d.tsv", p.seed))
	if err != nil {
		return err
	}
	for i := 0; i < k; i++ {
		rep.attempted++
		switch {
		case errs[i] != nil:
			rep.fail("traced cell %d: %v", i, errs[i])
			continue
		case keys[i] != base.keys[i]:
			rep.fail("traced cell %d decided differently from the untraced run", i)
		}
		for _, f := range fails[i] {
			rep.fail("%s", f)
		}
		g.add(units[i])
		sw.write(units[i])
	}
	if err := sw.close(); err != nil {
		return err
	}
	rep.printf("traced %d runs in %.2fs; untraced %d in %.2fs", k, elapsed, k, base.elapsed())
	fillLayerMetrics(rep, &g, nil)
	rep.values["trace.overhead_pct"] = 100 * (elapsed/base.elapsed() - 1)
	checkLedger(rep, &g, "run")
	return nil
}

func tracedSweepCell(i int, c sweepCell) (*unit, uint64, []string, error) {
	t := newSeqTrace("run", i)
	t.open(lAdvBuild)
	spec := sweepSpec(c)
	t.close()
	spec.Adversary = wrapAdversary(spec.Adversary, t)
	spec.Runner = timedSequential(t)
	t.open(lSimExecute)
	out, err := sim.Execute(spec)
	t.close()
	if err != nil {
		return nil, 0, nil, err
	}
	t.open(lSimCheck)
	fails := checkSweepOutcome(i, c, out)
	t.close()
	return t.finish(), outcomeKey(&out.Outcome), fails, nil
}
