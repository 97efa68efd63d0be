package kset_test

import (
	"math/rand"
	"testing"

	"kset"
)

// TestSolveFigure1 exercises the one-call public entry point end to end.
func TestSolveFigure1(t *testing.T) {
	out, err := kset.Solve(kset.Figure1(), kset.SeqProposals(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Check(3); err != nil {
		t.Fatal(err)
	}
	if out.MinK != 3 || out.RootComps != 2 {
		t.Fatalf("MinK=%d RootComps=%d", out.MinK, out.RootComps)
	}
	if got := out.DistinctDecisions(); len(got) != 2 {
		t.Fatalf("decisions %v", got)
	}
}

func TestPublicPredicateHelpers(t *testing.T) {
	skel, rst := kset.StableSkeleton(kset.Figure1(), 0)
	if rst != 3 {
		t.Fatalf("r_ST = %d", rst)
	}
	if !kset.PsrcsHolds(skel, 3) || kset.PsrcsHolds(skel, 2) {
		t.Fatal("Psrcs boundary wrong")
	}
	if kset.MinK(skel) != 3 {
		t.Fatal("MinK wrong")
	}
	if roots := kset.RootComponents(skel); len(roots) != 2 {
		t.Fatalf("roots %v", roots)
	}
}

func TestPublicExecutorsAndFactory(t *testing.T) {
	cfg := kset.Config{
		Adversary:  kset.Complete(4),
		NewProcess: kset.NewFactory(kset.SeqProposals(4), kset.Options{}),
		MaxRounds:  10,
	}
	seq, err := kset.RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := kset.RunConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Procs {
		a := seq.Procs[i].(*kset.Process)
		b := conc.Procs[i].(*kset.Process)
		av, _ := a.Decision()
		bv, _ := b.Decision()
		if av != bv || av != 1 {
			t.Fatalf("p%d: %d vs %d", i+1, av, bv)
		}
	}
}

func TestPublicAdversaries(t *testing.T) {
	if kset.Isolation(3).Graph(1).NumEdges() != 3 {
		t.Fatal("Isolation wrong")
	}
	if kset.LowerBound(5, 2).N() != 5 {
		t.Fatal("LowerBound wrong")
	}
	out, err := kset.Solve(kset.PartitionEven(6, 2), kset.SeqProposals(6))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.DistinctDecisions()); got != 2 {
		t.Fatalf("partition decisions = %d", got)
	}

	rng := rand.New(rand.NewSource(5))
	run := kset.RandomSources(8, 2, 3, 0.2, rng)
	out, err = kset.Solve(run, kset.SeqProposals(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Check(out.MinK); err != nil {
		t.Fatal(err)
	}

	ev := kset.Eventual(kset.Complete(4), 4)
	out, err = kset.Solve(ev, kset.SeqProposals(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.DistinctDecisions()); got != 4 {
		t.Fatalf("eventual run decisions = %d, want n", got)
	}

	ch := kset.NewChurn(kset.Figure1().Base(), 0.1, 1)
	out, err = kset.Solve(ch, kset.SeqProposals(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := out.CheckTermination(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicProcessDirectUse(t *testing.T) {
	p := kset.NewProcess(9)
	p.Init(0, 1)
	msg := p.Send(1).(*kset.Message)
	p.Transition(1, []any{msg})
	if !p.Decided() {
		t.Fatal("singleton should decide at round 1")
	}
	q := kset.NewProcessWithOptions(3, kset.Options{MergeOwnGraph: true})
	q.Init(0, 1)
	if q.Decided() {
		t.Fatal("fresh process decided")
	}
}

func TestFacadeExtensions(t *testing.T) {
	// Runfile round-trip through the facade.
	buf := kset.EncodeRun(kset.ConsensusViolation())
	run, err := kset.DecodeRun(buf)
	if err != nil {
		t.Fatal(err)
	}
	out, err := kset.Solve(run, kset.ConsensusViolationProposals())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.DistinctDecisions()); got != 2 {
		t.Fatalf("replayed witness decided %d values, want the documented 2", got)
	}

	// The repaired guard on the same replayed run reaches consensus.
	outR, err := kset.Execute(kset.Spec{
		Adversary: run,
		Proposals: kset.ConsensusViolationProposals(),
		Params:    kset.Options{ConservativeDecide: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(outR.DistinctDecisions()); got != 1 {
		t.Fatalf("repaired guard decided %d values, want 1", got)
	}

	// Mobile adversary through the facade.
	m := kset.NewMobile(6, 1, 4, 3)
	out2, err := kset.Solve(m.Settled(), kset.SeqProposals(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := out2.CheckTermination(); err != nil {
		t.Fatal(err)
	}
	if got := len(out2.DistinctDecisions()); got > out2.MinK {
		t.Fatalf("mobile run: %d values > MinK %d", got, out2.MinK)
	}
}
