package runtime

import (
	"math/rand"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/rounds"
	"kset/internal/sim"
)

// NamedSchedule is one entry of the E1–E16 schedule suite.
type NamedSchedule struct {
	// Name identifies the experiment family the schedule is drawn from.
	Name string
	// Spec is ready to Execute (Adversary, Proposals, Params set).
	Spec sim.Spec
}

// ScheduleSuite returns one representative schedule per experiment
// family E1–E16 (DESIGN.md §3), parameterized by n where the family
// allows it (fixed-size constructions like Figure 1 and the E10 witness
// keep their intrinsic n). It is the corpus the differential harness
// replays: if the runtime diverges from the simulator anywhere, it
// should diverge here.
func ScheduleSuite(n int, seed int64) []NamedSchedule {
	rng := rand.New(rand.NewSource(seed))
	if n < 4 {
		n = 4
	}
	k := n / 2
	if k < 2 {
		k = 2
	}
	crashRun, _ := adversary.RandomCrashes(n, (n-1)/3, 3, rng)
	suite := []NamedSchedule{
		{"E1-figure1", sim.Spec{Adversary: adversary.Figure1(), Proposals: sim.SeqProposals(6)}},
		{"E2-rooted-skeleton", spec(adversary.RandomSources(n, 1+rng.Intn(n), n/2, 0.25, rng))},
		{"E3-lowerbound", spec(adversary.LowerBound(n, k))},
		{"E4-noisy-sources", spec(adversary.RandomSources(n, 1+rng.Intn(3), 2*n, 0.3, rng))},
		{"E5-metered", metered(adversary.RandomSources(n, 1+rng.Intn(3), n/2, 0.3, rng))},
		{"E6-crashes", spec(crashRun)},
		{"E7-single-source", spec(adversary.RandomSingleSource(n, rng.Intn(n), 0.2, 0.2, rng))},
		{"E8-eventual-isolation", spec(adversary.Eventual(adversary.Complete(n), n/2))},
		{"E9-merge-own-graph", withOpts(adversary.RandomSources(n, 2, n/2, 0.25, rng), core.Options{MergeOwnGraph: true})},
		{"E9-purge-2n", withOpts(adversary.RandomSources(n, 2, n/2, 0.25, rng), core.Options{PurgeWindow: 2 * n})},
		{"E10-witness", sim.Spec{Adversary: adversary.ConsensusViolation(), Proposals: adversary.ConsensusViolationProposals()}},
		{"E10-witness-repaired", sim.Spec{
			Adversary: adversary.ConsensusViolation(),
			Proposals: adversary.ConsensusViolationProposals(),
			Params:    core.Options{ConservativeDecide: true},
		}},
		{"E11-churn", spec(adversary.NewChurn(adversary.Complete(n).Base(), 0.15, rng.Int63()))},
		{"E12-mobile", spec(adversary.NewMobileRoundRobin(n, 1, n, rng.Int63()))},
		{"E13-tinterval", spec(adversary.NewTInterval(n, 4, 4*n, 3, rng.Int63()))},
		{"E14-partition-merge", spec(adversary.NewPartitionMerge(n, min(4, n), 2, rng.Int63()))},
		{"E15-vertex-stable-root", spec(adversary.NewVertexStableRoot(n, max(1, n/4), 0.3, rng.Int63()))},
		{"E16-scaling-sources", spec(adversary.RandomSources(n, 1+rng.Intn(4), n, 0.2, rng))},
	}
	return suite
}

func spec(adv rounds.Adversary) sim.Spec {
	return sim.Spec{Adversary: adv, Proposals: sim.SeqProposals(adv.N())}
}

func metered(adv rounds.Adversary) sim.Spec {
	s := spec(adv)
	s.MeterMessages = true
	return s
}

func withOpts(adv rounds.Adversary, opts core.Options) sim.Spec {
	s := spec(adv)
	s.Params = opts
	return s
}
