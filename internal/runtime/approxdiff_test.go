package runtime

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/approx"
	"kset/internal/sim"
	"kset/internal/transport"
)

// approxSuite is the differential corpus for the second algorithm
// family: path and cycle graphs, stabilizing and adversarial schedules,
// one metered spec so the wire-byte accounting is compared too.
func approxSuite(n int, seed int64) []NamedSchedule {
	rng := rand.New(rand.NewSource(seed))
	if n < 4 {
		n = 4
	}
	props := make([]int64, n)
	for i := range props {
		props[i] = int64(rng.Intn(n + 1))
	}
	cycProps := make([]int64, n)
	v := n + 2
	for i := range cycProps {
		// Narrow arc wrapping vertex 0 — the universal-cover lifting path.
		cycProps[i] = int64((v - 1 + rng.Intn(3)) % v)
	}
	suite := []NamedSchedule{
		{"A1-path-sources", sim.Spec{
			Algorithm: algo.Approx,
			Adversary: adversary.RandomSources(n, 1, 1+rng.Intn(n), 0.3, rng),
			Proposals: props,
		}},
		{"A2-path-eventual", sim.Spec{
			Algorithm: algo.Approx,
			Adversary: adversary.Eventual(adversary.Complete(n), n/2),
			Proposals: props,
		}},
		{"A3-cycle-narrow", sim.Spec{
			Algorithm: algo.Approx,
			Adversary: adversary.RandomSources(n, 1, rng.Intn(n), 0.25, rng),
			Proposals: cycProps,
			Params:    approx.Options{Graph: approx.Graph{Shape: approx.Cycle, V: v}},
		}},
		{"A4-path-metered", sim.Spec{
			Algorithm:     algo.Approx,
			Adversary:     adversary.RandomSources(n, 1, n/2, 0.3, rng),
			Proposals:     props,
			MeterMessages: true,
		}},
		{"A5-path-nonstab", sim.Spec{
			Algorithm: algo.Approx,
			Adversary: adversary.NewChurn(adversary.Complete(n).Base(), 0.2, rng.Int63()),
			Proposals: props,
		}},
	}
	return suite
}

// TestApproxDifferentialInProc replays the approx corpus on the
// distributed runtime over the in-process transport and requires
// outcome-for-outcome equality with the lockstep simulator — the same
// bit-exactness contract the kset E-suite battery enforces, now through
// the registry-resolved codec instead of the historical hardwired one.
func TestApproxDifferentialInProc(t *testing.T) {
	ns := []int{4, 7}
	if testing.Short() {
		ns = []int{4}
	}
	for _, n := range ns {
		for _, sched := range approxSuite(n, int64(300+n)) {
			if err := Diff(sched.Spec, ReplayOpts{}); err != nil {
				t.Errorf("n=%d %s: %v", n, sched.Name, err)
			}
		}
	}
}

// TestApproxDifferentialTCP replays the approx corpus over real TCP
// loopback sockets, fully distributed and with processes coalesced onto
// 2 mesh nodes, plus jittered link delays on the distributed lane.
func TestApproxDifferentialTCP(t *testing.T) {
	n := 5
	for _, sched := range approxSuite(n, 311) {
		for _, opts := range []ReplayOpts{
			{Kind: "tcp", Jitter: 150 * time.Microsecond, JitterSeed: 9},
			{Kind: "tcp", Nodes: 2},
		} {
			if err := Diff(sched.Spec, opts); err != nil {
				t.Errorf("%s (nodes=%d): %v", sched.Name, opts.Nodes, err)
			}
		}
	}
}

// TestApproxDifferentialUDP replays a small approx subset over the
// best-effort UDP transport with the service's loopback timing, where a
// quiet loopback is effectively lossless and the comparison stays
// bit-exact. Kept small: each UDP round waits out its grace window.
func TestApproxDifferentialUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP differential lane exceeds the short-test budget")
	}
	suite := approxSuite(4, 331)
	for _, sched := range suite[:2] {
		if err := Diff(sched.Spec, ReplayOpts{Kind: "udp"}); err != nil {
			t.Errorf("%s: %v", sched.Name, err)
		}
	}
}

// TestApproxDifferentialNightly is the long-budget approx battery the
// nightly workflow runs (KSET_NIGHTLY=1): more sizes, several seeds,
// all three transports.
func TestApproxDifferentialNightly(t *testing.T) {
	if os.Getenv("KSET_NIGHTLY") == "" {
		t.Skip("nightly approx differential battery; set KSET_NIGHTLY=1 to run")
	}
	for _, n := range []int{4, 6, 9, 12} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, sched := range approxSuite(n, seed) {
				configs := []ReplayOpts{
					{},
					{Jitter: 150 * time.Microsecond, JitterSeed: seed},
					{Kind: "tcp", JitterSeed: seed},
					{Kind: "tcp", Nodes: 3, JitterSeed: seed},
				}
				if n <= 6 {
					configs = append(configs, ReplayOpts{Kind: "udp"})
				}
				for i, opts := range configs {
					if err := Diff(sched.Spec, opts); err != nil {
						t.Errorf("n=%d seed=%d %s (config %d): %v", n, seed, sched.Name, i, err)
					}
				}
			}
		}
	}
}

// approxCrashPlan kills two processes of an n-process approx run
// mid-protocol: p2 right after its round-4 broadcast and p5 before its
// round-7 one. notify announces the deaths (the in-proc transport has
// no deadline machinery to notice silence); the socket meshes detect
// silent deaths by stall.
func approxCrashPlan(n int, notify bool) *CrashPlan {
	plan := &CrashPlan{Round: make([]int, n), Site: make([]CrashSite, n), Notify: notify}
	plan.Round[1], plan.Site[1] = 4, CrashAfterSend
	plan.Round[4], plan.Site[4] = 7, CrashBeforeSend
	return plan
}

// TestApproxReplayUnderFaults runs every approx schedule through Replay
// under sustained UDP loss and under a crash plan on each transport.
// The harness must resolve the family's own round bound — A1 at n=6,
// seed 306 runs to its decide round 30, where a k-set bound would stop
// it at 23 with nobody decided — every surviving process must decide,
// and the approx oracles must stay silent on the realized run.
func TestApproxReplayUnderFaults(t *testing.T) {
	const n = 6
	configs := []struct {
		name string
		opts ReplayOpts
	}{
		{"udp-loss", ReplayOpts{Kind: "udp", UDP: lossyUDP(), Loss: 0.10, LossSeed: 7}},
		{"inproc-crash", ReplayOpts{Crash: approxCrashPlan(n, true)}},
		{"tcp-crash", ReplayOpts{Kind: "tcp", Crash: approxCrashPlan(n, false),
			TCP: transport.TCPOpts{Stall: transport.StallOpts{RoundTimeout: 25 * time.Millisecond, DeadAfter: 4, MaxReconnect: 2}}}},
		{"udp-crash", ReplayOpts{Kind: "udp", Crash: approxCrashPlan(n, false),
			UDP: transport.UDPOpts{RoundTimeout: 15 * time.Millisecond, Grace: 2 * time.Millisecond, DeadAfter: 4}}},
	}
	for _, sched := range approxSuite(n, 306) {
		resolved := sched.Spec
		if err := resolved.Resolve(); err != nil {
			t.Fatal(err)
		}
		decideRound := resolved.Params.(approx.Options).DecideRound
		if sched.Name == "A1-path-sources" && decideRound != 30 {
			t.Fatalf("A1 resolved decide round %d, want 30", decideRound)
		}
		for _, cfg := range configs {
			rep, err := Replay(sched.Spec, cfg.opts)
			if err != nil {
				t.Errorf("%s %s: %v", sched.Name, cfg.name, err)
				continue
			}
			if rep.Live.Rounds != decideRound {
				t.Errorf("%s %s: ran %d rounds, want the resolved decide round %d", sched.Name, cfg.name, rep.Live.Rounds, decideRound)
			}
			for i, d := range rep.Live.Decided {
				if !d && (cfg.opts.Crash == nil || cfg.opts.Crash.Round[i] == 0) {
					t.Errorf("%s %s: surviving p%d undecided", sched.Name, cfg.name, i+1)
				}
			}
			if len(rep.Violations) != 0 {
				t.Errorf("%s %s: approx oracles fired: %v", sched.Name, cfg.name, rep.Violations)
			}
			if cfg.opts.Loss > 0 && rep.LostLinks == 0 {
				t.Errorf("%s %s: 10%% injected loss lost nothing", sched.Name, cfg.name)
			}
		}
	}
}
