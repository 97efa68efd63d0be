package chaos

import (
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/core"
	"kset/internal/runtime"
	"kset/internal/sim"
	"kset/internal/transport"
)

// TestCrashReplayBattery is the acceptance battery: every transport ×
// n ∈ {8, 16} × seeded crash plans cycling through all three crash
// sites, each live run verified bit-for-bit against its lockstep replay.
// Zero tolerance: any divergence fails (and drops a .ksr artifact via
// ArtifactDir when debugging locally).
func TestCrashReplayBattery(t *testing.T) {
	for _, cfg := range BatteryConfigs() {
		cfg := cfg
		if testing.Short() && cfg.N > 8 {
			continue
		}
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Crashed != cfg.Crashes {
				t.Errorf("plan killed %d processes, want %d", rep.Crashed, cfg.Crashes)
			}
			if !rep.KBound {
				t.Errorf("%d distinct decisions exceed realized MinK %d", rep.Distinct, rep.Replay.MinK)
			}
			if cfg.Algorithm == algo.Approx {
				// The run reaches the resolved decide round, where the
				// termination oracle demands every survivor's decision.
				if rep.Live.Rounds != rep.Live.Run.MaxRounds {
					t.Errorf("ran %d rounds, want the resolved decide round %d", rep.Live.Rounds, rep.Live.Run.MaxRounds)
				}
				if len(rep.Violations) != 0 {
					t.Errorf("approx oracles fired: %v", rep.Violations)
				}
			}
		})
	}
}

// TestCrashSitesExactHeardSets pins the site semantics on the announced
// in-proc transport, where nothing is timing-dependent: a before-send
// crash leaves only the victim's self-loop in its crash round, mid-send
// reaches exactly the partial set, after-send reaches everyone the
// schedule allows — and from the next round the victim's row is empty.
func TestCrashSitesExactHeardSets(t *testing.T) {
	const n, crashRound = 6, 3
	for _, tc := range []struct {
		name    string
		site    runtime.CrashSite
		partial []int
	}{
		{"before-send", runtime.CrashBeforeSend, nil},
		{"mid-send", runtime.CrashMidSend, []int{1, 4}},
		{"after-send", runtime.CrashAfterSend, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			victim := 2
			plan := SiteCrashPlan(n, victim, crashRound, tc.site, true, tc.partial...)
			spec := sim.Spec{
				Adversary: adversary.Complete(n),
				Proposals: sim.SeqProposals(n),
				Params:    core.Options{ConservativeDecide: true},
				MaxRounds: 3*n + 10,
			}
			rep, err := runtime.Replay(spec, runtime.ReplayOpts{Kind: "inproc", Crash: plan})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Live.Rounds <= crashRound {
				t.Fatalf("run ended in %d rounds, before the crash at %d played out", rep.Live.Rounds, crashRound)
			}
			g := rep.Realized[crashRound-1]
			for q := 0; q < n; q++ {
				if q == victim {
					continue
				}
				got := g.HasEdge(victim, q)
				var want bool
				switch tc.site {
				case runtime.CrashBeforeSend:
					want = false
				case runtime.CrashMidSend:
					want = false
					for _, p := range tc.partial {
						if p == q {
							want = true
						}
					}
				case runtime.CrashAfterSend:
					want = true
				}
				if got != want {
					t.Errorf("crash round: edge victim->p%d = %v, want %v", q+1, got, want)
				}
			}
			// After the crash round the victim's row is self-loop only.
			for r := crashRound + 1; r <= rep.Live.Rounds; r++ {
				g := rep.Realized[r-1]
				for q := 0; q < n; q++ {
					if q != victim && g.HasEdge(victim, q) {
						t.Errorf("round %d: dead victim still delivered to p%d", r, q+1)
					}
				}
				if !g.HasEdge(victim, victim) {
					t.Errorf("round %d: victim's self-loop missing from the realized graph", r)
				}
			}
			// Survivors all decide (complete graph minus one crash keeps a
			// single root component: consensus among the living).
			for i := 0; i < n; i++ {
				if i != victim && !rep.Live.Decided[i] {
					t.Errorf("survivor p%d never decided", i+1)
				}
			}
		})
	}
}

// TestSilentCrashDetectedByStall runs a silent (unannounced) crash over
// the TCP mesh in chaos mode and over the UDP mesh: no MarkDead is ever
// called by the injector, so the only way the run can finish is the
// transport's own stall detector declaring the victim dead after
// DeadAfter deadline-closed rounds. The counters must show the verdict.
func TestSilentCrashDetectedByStall(t *testing.T) {
	for _, kind := range []string{"tcp", "udp"} {
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			const n = 5
			var counters transport.StallCounters
			plan := SiteCrashPlan(n, 1, 3, runtime.CrashAfterSend, false)
			spec := sim.Spec{
				Adversary: adversary.Complete(n),
				Proposals: sim.SeqProposals(n),
				Params:    core.Options{ConservativeDecide: true},
				MaxRounds: 3*n + 12,
			}
			opts := runtime.ReplayOpts{Kind: kind, Crash: plan}
			if kind == "tcp" {
				opts.TCP.Stall = transport.StallOpts{
					RoundTimeout: 25 * time.Millisecond,
					DeadAfter:    3,
					MaxReconnect: 2,
					Counters:     &counters,
				}
			} else {
				opts.UDP = transport.UDPOpts{
					RoundTimeout: 15 * time.Millisecond,
					Grace:        2 * time.Millisecond,
					DeadAfter:    3,
					Counters:     &counters,
				}
			}
			rep, err := runtime.Replay(spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			if counters.Stalls.Load() == 0 {
				t.Error("silent crash closed no rounds by deadline")
			}
			if counters.Dead.Load() == 0 {
				t.Error("stall detector never issued the death verdict")
			}
			for i := 0; i < n; i++ {
				if i != 1 && !rep.Live.Decided[i] {
					t.Errorf("survivor p%d never decided", i+1)
				}
			}
		})
	}
}

// TestStallPlanRecoversWithoutVerdict delays one sender beyond the round
// deadline for a few rounds — long enough to burn deadlines, short
// enough that the miss streak never reaches DeadAfter. The run must
// finish with all processes deciding and zero death verdicts: a slow
// peer is not a dead peer.
func TestStallPlanRecoversWithoutVerdict(t *testing.T) {
	const n = 4
	var counters transport.StallCounters
	stall := &runtime.StallPlan{
		From:  make([]int, n),
		To:    make([]int, n),
		Delay: make([]time.Duration, n),
	}
	// p3 oversleeps the deadline in rounds 2 and 4 (not consecutive
	// enough for DeadAfter=3 even if both close by deadline).
	stall.From[2], stall.To[2], stall.Delay[2] = 2, 2, 40*time.Millisecond
	spec := sim.Spec{
		Adversary: adversary.Complete(n),
		Proposals: sim.SeqProposals(n),
		Params:    core.Options{ConservativeDecide: true},
		MaxRounds: 3*n + 10,
	}
	rep, err := runtime.Replay(spec, runtime.ReplayOpts{
		Kind:  "udp",
		Stall: stall,
		UDP: transport.UDPOpts{
			RoundTimeout: 10 * time.Millisecond,
			Grace:        2 * time.Millisecond,
			DeadAfter:    3,
			Counters:     &counters,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if counters.Dead.Load() != 0 {
		t.Fatalf("a transient stall drew %d death verdicts", counters.Dead.Load())
	}
	for i := 0; i < n; i++ {
		if !rep.Live.Decided[i] {
			t.Errorf("p%d never decided after the stall cleared", i+1)
		}
	}
}
