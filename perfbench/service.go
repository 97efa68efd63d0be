package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"sync"
	"time"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/approx"
	"kset/internal/core"
	"kset/internal/rounds"
	"kset/internal/runtime"
	"kset/internal/service"
	"kset/internal/sim"
)

// service-mix: an in-process ksetd (service.New with the default
// Config, as cmd/ksetd ships it) driven in a closed loop by one
// submitter and one poller: 32 sessions in flight, submitted in batches
// of 8, each caller waiting for its results. Sessions run over the
// in-process transport with ksetload's family mix plus the generator
// families, n = 2..16, and one session in four is graph approximate
// agreement.

const (
	svcWindow = 32
	svcBatch  = 8
)

var svcFamilies = []string{"rooted", "single_source", "lowerbound", "partition_merge", "vertex_stable", "complete", "tinterval"}

// serviceSpecs generates the session pool; runs cycle through it.
func serviceSpecs(seed int64, count int) []service.SessionSpec {
	specs := make([]service.SessionSpec, count)
	for i := range specs {
		n := 2 + i%15
		specs[i] = service.SessionSpec{
			N:      n,
			Family: svcFamilies[i%len(svcFamilies)],
			Seed:   adversary.MixSeed(seed, i),
			Noisy:  i % 5,
			Roots:  1 + i%min(3, n),
		}
		if i%4 == 3 {
			specs[i].Algorithm = algo.Approx
		}
	}
	return specs
}

func specsDigest(specs []service.SessionSpec) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, s := range specs {
		if err := enc.Encode(s); err != nil {
			panic(err) // a SessionSpec always encodes
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// sessionObs is what the client observed of one session.
type sessionObs struct {
	idx               int   // pool index of its spec
	submit, admitted  int64 // Submit call start and return
	running, done     int64 // first poll seeing it past "queued", first seeing it finished
	skippedRunning    bool  // first seen already finished
	sess              service.Session
	completedInWindow bool
	rejected          string
}

// closedLoop drives svc for seconds and returns every session it
// submitted, in completion order.
func closedLoop(svc *service.Service, specs []service.SessionSpec, seconds float64) (obs []*sessionObs, t0, end int64) {
	// slots is the in-flight window, a counting semaphore.
	slots := make(chan struct{}, svcWindow)
	for i := 0; i < svcWindow; i++ {
		slots <- struct{}{}
	}
	// submitted carries each accepted batch to the poller; at most
	// svcWindow/svcBatch batches are ever in flight.
	submitted := make(chan []*sessionObs, svcWindow/svcBatch)
	t0 = now()
	end = t0 + int64(seconds*1e9)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // submitter
		defer wg.Done()
		defer close(submitted)
		next := 0
		for now() < end {
			for i := 0; i < svcBatch; i++ {
				<-slots
			}
			b := make([]*sessionObs, svcBatch)
			in := make([]service.SessionSpec, svcBatch)
			for i := range in {
				idx := (next + i) % len(specs)
				in[i] = specs[idx]
				b[i] = &sessionObs{idx: idx}
			}
			next += svcBatch
			start := now()
			res := svc.Submit(in)
			ret := now()
			for i, r := range res {
				o := b[i]
				o.submit, o.admitted = start, ret
				if r.Error != "" {
					o.rejected = r.Error
				} else {
					o.sess.ID = r.ID
				}
			}
			submitted <- b
		}
	}()

	var pending []*sessionObs
	open := true
	for open || len(pending) > 0 { // poller
		if open {
			select {
			case b, ok := <-submitted:
				if !ok {
					open = false
				}
				pending = append(pending, b...)
			default:
			}
		}
		kept := pending[:0]
		for _, o := range pending {
			if o.rejected == "" {
				s, ok := svc.Get(o.sess.ID)
				if !ok {
					o.rejected = "session vanished from the registry"
				} else {
					t := now()
					if s.Status != "queued" && o.running == 0 {
						o.running = t
						o.skippedRunning = s.Status != "running"
					}
					if s.Status == "running" || s.Status == "queued" {
						kept = append(kept, o)
						continue
					}
					o.done, o.sess = t, s
					o.completedInWindow = t <= end
				}
			}
			obs = append(obs, o)
			slots <- struct{}{}
		}
		pending = kept
		time.Sleep(50 * time.Microsecond)
	}
	wg.Wait()
	return obs, t0, end
}

// checkSession applies the service-mix checks to one finished session.
func checkSession(o *sessionObs) string {
	switch {
	case o.rejected != "":
		return fmt.Sprintf("spec %d rejected: %s", o.idx, o.rejected)
	case o.sess.Status != "done":
		return fmt.Sprintf("session %s (spec %d) ended %q: %s", o.sess.ID, o.idx, o.sess.Status, o.sess.Error)
	case o.sess.Result == nil || !o.sess.Result.AllDecided:
		return fmt.Sprintf("session %s (spec %d): not every process decided", o.sess.ID, o.idx)
	case !o.sess.Result.KBound:
		return fmt.Sprintf("session %s (spec %d): agreement bound violated", o.sess.ID, o.idx)
	}
	return ""
}

func runServiceMix(p params) (*report, error) {
	rep := newReport()
	pool := 1 << 13
	if p.small {
		pool = 48
	}
	// Set-up: generating the session pool and starting the service,
	// repeated to take a median; the last service is the one measured.
	var setups []float64
	var specs []service.SessionSpec
	var svc *service.Service
	for i := 0; i < setupReps; i++ {
		if svc != nil {
			svc.Close()
		}
		goruntime.GC()
		t := now()
		specs = serviceSpecs(p.seed, pool)
		svc = service.New(service.Config{})
		setups = append(setups, float64(now()-t)/1e9)
	}
	defer svc.Close()
	rep.values["setup_s"] = median(setups)
	rep.printf("inputs sha256:%s (%d session specs, families %v, n=2..16, 1 in 4 approx)", specsDigest(specs), len(specs), svcFamilies)

	window := p.seconds
	if p.trace {
		window /= 2
	}
	obs, t0, end := closedLoop(svc, specs, window)
	if len(obs) > 0 && p.breakCheck {
		obs[0].sess.Status = "failed" // self-test: a wrong output must be caught
	}
	// Sessions finishing after the window closed are checked but not
	// measured.
	var doneAt []int64
	var lat, queue []float64
	var rounds []int
	skipped := 0
	for _, o := range obs {
		rep.attempted++
		if f := checkSession(o); f != "" {
			rep.fail("%s", f)
			continue
		}
		queue = append(queue, float64(o.running-o.admitted)/1e6)
		if o.skippedRunning {
			skipped++
		}
		if o.completedInWindow {
			doneAt = append(doneAt, o.done)
			lat = append(lat, float64(o.done-o.submit)/1e6)
			rounds = append(rounds, o.sess.Result.Rounds)
		}
	}
	var rates, roundRates []float64
	k := rateWindows(window)
	windowed(doneAt, t0, end, k, func(lo, hi int, width float64) {
		sum := 0
		for _, r := range rounds[lo:hi] {
			sum += r
		}
		rates = append(rates, float64(hi-lo)/width)
		roundRates = append(roundRates, float64(sum)/width)
	})
	rep.values["runs_per_sec"] = median(rates)
	rep.values["rounds_per_sec"] = median(roundRates)
	l := latencyWindows(doneAt, lat)
	rep.values["latency_p50_ms"], rep.values["latency_p90_ms"] = l.p50, l.p90
	rep.printf("sessions_per_sec %.1f sessions/s (median of %d windows %.0f; %d completed in %.2fs; window %d, batches of %d)",
		rep.values["runs_per_sec"], k, rates, len(doneAt), float64(end-t0)/1e9, svcWindow, svcBatch)
	rep.printf("session_p50_ms %.3f ms, session_p90_ms %.3f ms, session_p95_ms %.3f ms, session_p99_ms %.3f ms (submit -> done, n=%d, median of %d windows)",
		l.p50, l.p90, l.p95, l.p99, len(lat), l.windows)
	rep.printf("rounds_per_sec %.1f rounds/s", rep.values["rounds_per_sec"])
	rep.printf("setup_s %.6f s (median of %d)", rep.values["setup_s"], len(setups))
	if !p.trace {
		return rep, nil
	}
	rep.values["service.queue_wait_p50_ms"] = quantile(queue, 0.5)
	rep.values["service.queue_wait_p99_ms"] = quantile(queue, 0.99)
	rep.printf("queue wait from polling: %d of %d sessions were first seen already finished", skipped, len(queue))
	return rep, tracedService(p, rep, obs)
}

// buildAdversary maps a session spec onto the adversary catalogue
// exactly as the service does for the families the workload submits.
func buildAdversary(spec service.SessionSpec) (rounds.Adversary, error) {
	n := spec.N
	rng := rand.New(rand.NewSource(spec.Seed))
	roots := max(spec.Roots, 1)
	switch spec.Family {
	case "complete":
		return adversary.Complete(n), nil
	case "rooted":
		return adversary.RandomSources(n, roots, spec.Noisy, 0.25, rng), nil
	case "single_source":
		return adversary.RandomSingleSource(n, spec.Noisy, 0.2, 0.2, rng), nil
	case "lowerbound":
		k := spec.K
		if k == 0 {
			k = n / 2
		}
		switch k {
		case n:
			return adversary.Isolation(n), nil
		case 1:
			return adversary.Complete(n), nil
		}
		return adversary.LowerBound(n, k), nil
	case "tinterval":
		return adversary.NewTInterval(n, 4, 4*n, min(3, n), spec.Seed), nil
	case "partition_merge":
		return adversary.NewPartitionMerge(n, min(4, n), 2, spec.Seed), nil
	case "vertex_stable":
		return adversary.NewVertexStableRoot(n, max(1, n/4), 0.3, spec.Seed), nil
	}
	return nil, fmt.Errorf("family %q is not in the workload", spec.Family)
}

// sessionSpec is the sim.Spec the service executes for a normalized
// session spec.
func sessionSpec(spec service.SessionSpec, adv rounds.Adversary) sim.Spec {
	props := spec.Proposals
	if props == nil {
		props = sim.SeqProposals(spec.N)
	}
	out := sim.Spec{Adversary: adv, Proposals: props, Algorithm: spec.Algorithm, MaxRounds: spec.MaxRounds}
	if spec.Algorithm == algo.Approx {
		shape := approx.Path
		if spec.Cycle {
			shape = approx.Cycle
		}
		out.Params = approx.Options{Graph: approx.Graph{Shape: shape, V: spec.Vertices}}
	} else {
		out.Params = core.Options{ConservativeDecide: !spec.FaithfulGuard}
	}
	return out
}

// matchesSession reports how a replayed outcome differs from the
// service's result ("" when identical).
func matchesSession(out *sim.Outcome, res *service.SessionResult) string {
	switch {
	case out.Rounds != res.Rounds:
		return fmt.Sprintf("rounds %d, service %d", out.Rounds, res.Rounds)
	case !slices.Equal(out.Decided, res.Decided) || !slices.Equal(out.Decisions, res.Decisions):
		return fmt.Sprintf("decisions %v, service %v", out.Decisions, res.Decisions)
	case out.MinK != res.MinK || out.RST != res.RST:
		return fmt.Sprintf("MinK %d RST %d, service %d %d", out.MinK, out.RST, res.MinK, res.RST)
	}
	return ""
}

// replayCap bounds how many completed sessions a traced run replays
// (twice), keeping the traced run's length close to the untraced one.
const replayCap = 1000

// tracedService replays the first replayCap sessions the closed loop
// completed, first through runtime.NewRunner over the in-process
// transport as the service does (untraced), then through the timed
// runner. Both replays must reproduce each session's service result
// exactly; their time difference is the tracing overhead.
func tracedService(p params, rep *report, obs []*sessionObs) error {
	var done []*sessionObs
	var svc ledger
	for _, o := range obs {
		if checkSession(o) != "" {
			continue
		}
		if len(done) < replayCap {
			done = append(done, o)
		}
		u := &unit{kind: "session", id: o.idx, root: lUnit, dur: o.done - o.submit}
		u.add(lServiceAdmit, lUnit, 1, 1, o.admitted-o.submit)
		u.add(lServiceQueue, lUnit, 1, 1, o.running-o.admitted)
		u.add(lServiceExec, lUnit, 1, 1, o.done-o.running)
		svc.add(u)
	}

	t0 := now()
	for _, o := range done {
		adv, err := buildAdversary(o.sess.Spec)
		if err != nil {
			return err
		}
		spec := sessionSpec(o.sess.Spec, adv)
		spec.Runner = runtime.NewRunner(runtime.RunnerOpts{Algorithm: spec.Algorithm})
		out, err := sim.Execute(spec)
		rep.attempted++
		if err != nil {
			rep.fail("replay of session %s: %v", o.sess.ID, err)
			continue
		}
		_ = out.CheckAlgorithm() // the same work as the traced replay
		if d := matchesSession(out, o.sess.Result); d != "" {
			rep.fail("untraced replay of session %s: %s", o.sess.ID, d)
		}
	}
	untraced := float64(now()-t0) / 1e9

	var g ledger
	var deliveries, decodes int64
	var gathers []float64
	sw, err := newSpanWriter(p.spansDir, fmt.Sprintf("service-mix-seed%d.tsv", p.seed))
	if err != nil {
		return err
	}
	t0 = now()
	for _, o := range done {
		t := newSeqTrace("session", o.idx)
		t.open(lAdvBuild)
		adv, err := buildAdversary(o.sess.Spec)
		t.close()
		if err != nil {
			return err
		}
		spec := sessionSpec(o.sess.Spec, wrapAdversary(adv, t))
		var m *meshRec
		spec.Runner = timedRuntime(t, meshOpts{kind: "inproc", algo: spec.Algorithm}, &m)
		t.open(lSimExecute)
		out, err := sim.Execute(spec)
		t.close()
		rep.attempted++
		if err != nil {
			rep.fail("traced replay of session %s: %v", o.sess.ID, err)
			continue
		}
		t.open(lSimCheck)
		_ = out.CheckAlgorithm() // the same work as the traced replay
		t.close()
		u := t.finish()
		m.fold(u, 0, lRuntimeRun)
		deliveries += m.rows[0].deliveries.Load()
		decodes += m.rows[0].calls[lWireDecode].Load()
		gathers = appendGathers(gathers, m)
		g.add(u)
		sw.write(u)
		if d := matchesSession(out, o.sess.Result); d != "" {
			rep.fail("traced replay of session %s: %s", o.sess.ID, d)
		}
	}
	traced := float64(now()-t0) / 1e9
	if err := sw.close(); err != nil {
		return err
	}
	fillLayerMetrics(rep, &g, &svc)
	rep.values["transport.gather_wait_p50_us"] = quantile(gathers, 0.5)
	rep.values["transport.gather_wait_p99_us"] = quantile(gathers, 0.99)
	if deliveries > 0 {
		rep.values["wire.decodes_per_delivery"] = float64(decodes) / float64(deliveries)
	}
	if untraced > 0 {
		rep.values["trace.overhead_pct"] = 100 * (traced/untraced - 1)
	}
	rep.printf("replayed %d sessions against their service results: untraced %.2fs, traced %.2fs", len(done), untraced, traced)
	checkLedger(rep, &svc, "session")
	checkLedger(rep, &g, "replayed-session")
	return nil
}
