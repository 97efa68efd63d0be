package runtime

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/sim"
	"kset/internal/transport"
)

// TestLossReplayNightlySoak is the long-budget lossy-UDP battery the
// nightly workflow runs (KSET_NIGHTLY=1): many seeds and mesh shapes
// under sustained 10% injected frame loss COMBINED with real
// kernel-buffer pressure — the sockets get the smallest buffers the
// kernel will grant, so bursts overflow and the wire genuinely drops
// datagrams on its own, beyond the injected schedule. Every run must
// survive the full loss-replay verification (the live run equals the
// lockstep simulator on the realized heard-sets, bit for bit) with
// zero k-bound violations, for k-set agreement and for graph
// approximate agreement alike; across the whole soak the network must
// actually have lost traffic, or the battery proved nothing.
func TestLossReplayNightlySoak(t *testing.T) {
	if os.Getenv("KSET_NIGHTLY") == "" {
		t.Skip("nightly lossy-UDP soak; set KSET_NIGHTLY=1 to run")
	}
	totalLost := 0
	for _, n := range []int{6, 8, 12} {
		for _, nodes := range []int{0, 2} {
			for seed := int64(1); seed <= 8; seed++ {
				rng := rand.New(rand.NewSource(seed + int64(100*n+nodes)))
				spec := sim.Spec{
					Adversary: adversary.RandomSources(n, 1+rng.Intn(3), n/2, 0.25, rng),
					Proposals: sim.SeqProposals(n),
					Params:    core.Options{ConservativeDecide: true},
					MaxRounds: 40,
				}
				rep, err := Replay(spec, ReplayOpts{
					Kind:     "udp",
					Nodes:    nodes,
					UDP:      soakUDP(),
					Loss:     0.10,
					LossSeed: seed,
				})
				if err != nil {
					t.Errorf("n=%d nodes=%d seed=%d: %v", n, nodes, seed, err)
					continue
				}
				totalLost += rep.LostLinks
				if !rep.KBound {
					t.Errorf("n=%d nodes=%d seed=%d: k-bound violation: %d distinct decisions, realized MinK %d",
						n, nodes, seed, rep.Distinct, rep.Replay.MinK)
				}
			}
		}
	}
	// Approx lane: the second family under the same loss. Every run must
	// reach its resolved decide round with every process decided and the
	// family's oracles silent on the realized run.
	for _, n := range []int{6, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, sched := range approxSuite(n, seed) {
				rep, err := Replay(sched.Spec, ReplayOpts{Kind: "udp", UDP: soakUDP(), Loss: 0.10, LossSeed: seed})
				if err != nil {
					t.Errorf("approx n=%d seed=%d %s: %v", n, seed, sched.Name, err)
					continue
				}
				totalLost += rep.LostLinks
				if err := rep.Live.CheckTermination(); err != nil || rep.Live.Rounds != rep.Live.Run.MaxRounds {
					t.Errorf("approx n=%d seed=%d %s: %d of %d rounds: %v", n, seed, sched.Name, rep.Live.Rounds, rep.Live.Run.MaxRounds, err)
				}
				if len(rep.Violations) != 0 {
					t.Errorf("approx n=%d seed=%d %s: oracles fired: %v", n, seed, sched.Name, rep.Violations)
				}
			}
		}
	}
	if totalLost == 0 {
		t.Error("soak lost no traffic anywhere: loss injection or buffer pressure is not working")
	}
}

// soakUDP is the soak's mesh shape: a tight deadline, and socket
// buffers so small (the kernel clamps up to its floor) that bursts
// overflow them.
func soakUDP() transport.UDPOpts {
	return transport.UDPOpts{RoundTimeout: 15 * time.Millisecond, Grace: 2 * time.Millisecond, SocketBuffer: 1 << 12}
}
