package runtime

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/core"
	"kset/internal/rounds"
	"kset/internal/sim"
	"kset/internal/transport"
)

// lagSpec is a fixed-length n=8 run long enough for a writer pause at
// round 50 to play out.
func lagSpec() sim.Spec {
	rng := rand.New(rand.NewSource(3))
	return sim.Spec{
		Adversary:       adversary.RandomSingleSource(8, 0, 0.2, 0.2, rng),
		Proposals:       sim.SeqProposals(8),
		Params:          core.Options{ConservativeDecide: true},
		MaxRounds:       80,
		RunToCompletion: true,
	}
}

// pauseOnce sleeps 20ms the first time node 0's writer handles round 50
// — long enough for the processes, closing rounds by a 2ms deadline, to
// run a whole send window ahead of their own node's writer.
func pauseOnce() func(r, from int) {
	var once sync.Once
	return func(r, from int) {
		if r == 50 && from == 0 {
			once.Do(func() { time.Sleep(20 * time.Millisecond) })
		}
	}
}

// stallingPolicy runs pause inside Deliver, which the TCP mesh consults
// for remote receivers only in its writer loop.
type stallingPolicy struct {
	transport.Policy
	pause func(r, from int)
}

func (p stallingPolicy) Deliver(r, from, to int) bool {
	if from != to {
		p.pause(r, from)
	}
	return p.Policy.Deliver(r, from, to)
}

// TestLaggingWriterIsLoss pauses one node's writer loop while its
// processes keep closing rounds by deadline, so they contribute rounds
// past the writer's send window. The stale contributions must count as
// lost frames — never ship under a later round, never fail the run —
// and the run must still replay bit-identically on its realized graphs.
func TestLaggingWriterIsLoss(t *testing.T) {
	t.Run("udp", func(t *testing.T) {
		pause := pauseOnce()
		rep, err := Replay(lagSpec(), ReplayOpts{Kind: "udp", UDP: transport.UDPOpts{
			RoundTimeout: 2 * time.Millisecond,
			Grace:        300 * time.Microsecond,
			DropDatagram: func(r, from, to, frag int) bool { pause(r, from); return false },
		}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Live.Rounds != 80 {
			t.Errorf("run executed %d rounds, want 80", rep.Live.Rounds)
		}
		if rep.LostLinks == 0 {
			t.Error("a 20ms writer pause under a 2ms deadline lost nothing")
		}
	})
	// Replay cannot reach the TCP writer (the pause needs a Policy), so
	// this lane drives a chaos-mode TCP mesh directly and replays by hand.
	t.Run("tcp", func(t *testing.T) {
		spec := lagSpec()
		sched := adversary.MaterializeRun(spec.Adversary, spec.MaxRounds)
		spec.Adversary = sched
		tr, err := transport.NewTCPMeshLoopbackOpts(8, 8, stallingPolicy{transport.NewSchedule(sched), pauseOnce()},
			transport.TCPOpts{Stall: transport.StallOpts{RoundTimeout: 2 * time.Millisecond, Grace: 300 * time.Microsecond}})
		if err != nil {
			t.Fatal(err)
		}
		meter := transport.NewHeardMeter(8)
		live := spec
		live.Runner = func(cfg rounds.Config) (*rounds.Result, error) {
			return Run(cfg, transport.Metered(tr, meter), algo.KSetCodec{})
		}
		liveOut, err := sim.Execute(live)
		if err != nil {
			t.Fatal(err)
		}
		realized := meter.Graphs()
		lost, err := contained(realized, sched, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lost == 0 {
			t.Error("a 20ms writer pause under a 2ms deadline lost nothing")
		}
		replay := spec
		replay.Adversary = adversary.NewRun(realized[:len(realized)-1], realized[len(realized)-1])
		replay.MaxRounds = liveOut.Rounds
		want, err := sim.Execute(replay)
		if err != nil {
			t.Fatal(err)
		}
		if err := compareDecisions(want, liveOut, nil); err != nil {
			t.Fatal(err)
		}
	})
}
