package runtime

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/sim"
	"kset/internal/transport"
)

// quietUDP is the UDP shape for loss-replay tests that want NO real
// loss: a deadline far beyond any scheduler stall, so absence closure
// fires only when a test injects loss deliberately.
func quietUDP() transport.UDPOpts {
	return transport.UDPOpts{RoundTimeout: 5 * time.Second, Grace: 10 * time.Millisecond}
}

// lossyUDP is the shape for tests that inject loss: a deadline tight
// enough that lossy rounds close quickly. A scheduler stall beyond the
// deadline just manifests as extra loss — which the harness tolerates
// by construction, so tightness cannot make these tests flaky.
func lossyUDP() transport.UDPOpts {
	return transport.UDPOpts{RoundTimeout: 15 * time.Millisecond, Grace: 2 * time.Millisecond}
}

// TestLossReplayLosslessEqualsSchedule runs suite schedules over a
// quiet UDP mesh: nothing is lost, so the realized heard-sets equal the
// scheduled ones and the loss-replay must verify with zero lost links.
func TestLossReplayLosslessEqualsSchedule(t *testing.T) {
	for _, sched := range ScheduleSuite(6, 88) {
		// Families with fixed small n keep it; the meter adapts.
		rep, err := Replay(sched.Spec, ReplayOpts{Kind: "udp", UDP: quietUDP()})
		if err != nil {
			t.Errorf("%s: %v", sched.Name, err)
			continue
		}
		if rep.LostLinks != 0 {
			t.Errorf("%s: quiet loopback lost %d scheduled deliveries", sched.Name, rep.LostLinks)
		}
		if rep.Live.Rounds != rep.Replay.Rounds {
			t.Errorf("%s: live %d rounds, replay %d", sched.Name, rep.Live.Rounds, rep.Replay.Rounds)
		}
		// E10-witness runs the published guard against the schedule built
		// to break it; the harness must *detect* the violation. Every
		// other suite entry must respect the bound.
		if wantKBound := sched.Name != "E10-witness"; rep.KBound != wantKBound {
			t.Errorf("%s: KBound = %v (distinct %d, MinK %d), want %v",
				sched.Name, rep.KBound, rep.Distinct, rep.Replay.MinK, wantKBound)
		}
	}
}

// TestLossReplayBoundedInjectedLoss kills 30% of frames during the
// first six rounds, then lets the network go quiet: the realized run
// stabilizes, processes decide, and the replay must reproduce the
// decisions bit for bit with the k-bound intact.
func TestLossReplayBoundedInjectedLoss(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + int(seed%3)
		spec := sim.Spec{
			Adversary: adversary.RandomSources(n, 1+rng.Intn(3), n/2, 0.3, rng),
			Proposals: sim.SeqProposals(n),
			Params:    core.Options{ConservativeDecide: true},
		}
		inject := transport.FrameLoss(0.3, seed)
		u := quietUDP()
		u.RoundTimeout = 15 * time.Millisecond
		u.DropDatagram = func(r, from, to, frag int) bool { return r <= 6 && inject(r, from, to, frag) }
		rep, err := Replay(spec, ReplayOpts{Kind: "udp", UDP: u})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.LostLinks == 0 {
			t.Errorf("seed %d: 30%% injected loss lost nothing", seed)
		}
		decided := 0
		for _, d := range rep.Live.Decided {
			if d {
				decided++
			}
		}
		if decided != n {
			t.Errorf("seed %d: only %d/%d processes decided after loss stopped", seed, decided, n)
		}
		if !rep.KBound {
			t.Errorf("seed %d: %d distinct decisions exceed realized MinK %d", seed, rep.Distinct, rep.Replay.MinK)
		}
	}
}

// TestLossReplaySustainedTenPercent is the acceptance shape: 10% i.i.d.
// frame loss for the whole run (nothing ever stabilizes for sure), over
// the fully distributed mesh and a grouped one. Whatever the realized
// run did — decided or not — it must equal its own replay and respect
// the k-bound the realized skeleton grants.
func TestLossReplaySustainedTenPercent(t *testing.T) {
	for _, nodes := range []int{0, 2} {
		for seed := int64(10); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 6
			spec := sim.Spec{
				Adversary: adversary.RandomSources(n, 2, n/2, 0.25, rng),
				Proposals: sim.SeqProposals(n),
				Params:    core.Options{ConservativeDecide: true},
				MaxRounds: 30,
			}
			rep, err := Replay(spec, ReplayOpts{
				Kind:  "udp",
				Nodes: nodes,
				UDP:   lossyUDP(),
				Loss:  0.10, LossSeed: seed,
			})
			if err != nil {
				t.Fatalf("nodes=%d seed=%d: %v", nodes, seed, err)
			}
			if rep.LostLinks == 0 {
				t.Errorf("nodes=%d seed=%d: sustained 10%% loss lost nothing", nodes, seed)
			}
			if !rep.KBound {
				t.Errorf("nodes=%d seed=%d: %d distinct decisions exceed realized MinK %d",
					nodes, seed, rep.Distinct, rep.Replay.MinK)
			}
		}
	}
}

// TestLossReplayPipelined sets RunToCompletion, driving the runtime's
// pipelined send path (round r+1 broadcast before the round-r report)
// over the lossy mesh: the bounded-lookahead window and the absence
// closure must compose, and the replay must still match.
func TestLossReplayPipelined(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 5
	spec := sim.Spec{
		Adversary:       adversary.RandomSources(n, 2, n/2, 0.3, rng),
		Proposals:       sim.SeqProposals(n),
		Params:          core.Options{ConservativeDecide: true},
		MaxRounds:       25,
		RunToCompletion: true,
	}
	rep, err := Replay(spec, ReplayOpts{Kind: "udp", UDP: lossyUDP(), Loss: 0.08, LossSeed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Live.Rounds != 25 {
		t.Fatalf("pipelined run executed %d rounds, want 25", rep.Live.Rounds)
	}
}

// TestLossReplayOwnsMeter pins the misuse guard: the harness installs
// its own heard meter, so a caller-supplied one is rejected instead of
// silently ignored.
func TestLossReplayOwnsMeter(t *testing.T) {
	spec := sim.Spec{Adversary: adversary.Complete(4), Proposals: sim.SeqProposals(4)}
	u := quietUDP()
	u.Meter = transport.NewHeardMeter(4)
	_, err := Replay(spec, ReplayOpts{Kind: "udp", UDP: u})
	if err == nil || !strings.Contains(err.Error(), "Meter") {
		t.Fatalf("caller-supplied meter accepted: %v", err)
	}
}
