package runtime

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/graph"
	"kset/internal/runfile"
)

// TestDifferentialSuiteInProc replays the full E1–E16 schedule suite on
// the distributed runtime over the in-process transport and requires
// outcome-for-outcome equality with the simulator. One n also runs with
// jittered link delays: timing skew must not leak into decisions.
func TestDifferentialSuiteInProc(t *testing.T) {
	ns := []int{4, 8, 16}
	if testing.Short() {
		ns = []int{4, 8}
	}
	for _, n := range ns {
		for _, sched := range ScheduleSuite(n, int64(1000+n)) {
			opts := ReplayOpts{}
			if n == 8 {
				opts.Jitter = 100 * time.Microsecond
				opts.JitterSeed = int64(n)
			}
			if err := Diff(sched.Spec, opts); err != nil {
				t.Errorf("n=%d %s: %v", n, sched.Name, err)
			}
		}
	}
}

// TestDifferentialSuiteN128 replays the full schedule suite at n = 128
// on the distributed runtime over the in-process transport — 128
// process goroutines per run, every E1–E16 family — and requires exact
// outcome equality with the simulator. This is the scale pin: the
// runtime's control plane, codec sharing, and transport windowing must
// not degrade into divergence (or deadlock) an order of magnitude above
// the everyday test sizes. Rounds are capped: per-round cost at this n
// is dominated by the O(n^4) knowledge-graph merges (~0.4s/round on one
// core once knowledge saturates), so full-length decided runs belong to
// benchmarks, not the default test budget — twelve rounds already cross
// every multi-word bitset path, the shared-decode plane, and the
// transport window machinery at full width.
func TestDifferentialSuiteN128(t *testing.T) {
	if testing.Short() {
		t.Skip("n=128 differential suite exceeds the short-test budget")
	}
	const n = 128
	for _, sched := range ScheduleSuite(n, int64(1000+n)) {
		sched.Spec.MaxRounds = 12
		if err := Diff(sched.Spec, ReplayOpts{}); err != nil {
			t.Errorf("n=%d %s: %v", n, sched.Name, err)
		}
	}
}

// TestDifferentialPipelined replays the suite with RunToCompletion set:
// no StopWhen predicate, so the runtime takes the pipelined send path
// (round r+1's broadcast precedes the round-r report). Every decision,
// decision round, and skeleton measurement must still match the
// lockstep simulator exactly, on both transports and with coalesced
// multi-process mesh nodes.
func TestDifferentialPipelined(t *testing.T) {
	n := 6
	for _, sched := range ScheduleSuite(n, 77) {
		sched.Spec.RunToCompletion = true
		for _, opts := range []ReplayOpts{
			{},
			{Kind: "tcp"},
			{Kind: "tcp", Nodes: 2},
		} {
			if err := Diff(sched.Spec, opts); err != nil {
				t.Errorf("%s (kind=%q nodes=%d): %v", sched.Name, opts.Kind, opts.Nodes, err)
			}
		}
	}
}

// TestDifferentialSuiteTCP replays the full suite over real TCP
// loopback sockets with jittered delays — both fully distributed (one
// node per process) and grouped onto 3 mesh nodes, where all of a
// round's messages between two nodes travel as one coalesced frame.
func TestDifferentialSuiteTCP(t *testing.T) {
	n := 6
	for _, sched := range ScheduleSuite(n, 2026) {
		for _, nodes := range []int{0, 3} {
			opts := ReplayOpts{Kind: "tcp", Nodes: nodes, Jitter: 200 * time.Microsecond, JitterSeed: 7}
			if err := Diff(sched.Spec, opts); err != nil {
				t.Errorf("n=%d nodes=%d %s: %v", n, nodes, sched.Name, err)
			}
		}
	}
}

// TestDifferentialNightly is the long-budget harness the nightly CI
// workflow runs (KSET_NIGHTLY=1): the full suite at n up to 32, several
// seeds, both transports. On divergence Replay writes the realized
// graphs as a .ksr runfile into KSET_ARTIFACT_DIR, so the workflow can
// upload a replayable counterexample.
func TestDifferentialNightly(t *testing.T) {
	if os.Getenv("KSET_NIGHTLY") == "" {
		t.Skip("nightly differential harness; set KSET_NIGHTLY=1 to run")
	}
	dir := os.Getenv("KSET_ARTIFACT_DIR")
	for _, n := range []int{8, 16, 24, 32} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, sched := range ScheduleSuite(n, seed) {
				configs := []ReplayOpts{
					{ArtifactDir: dir},
					{Jitter: 150 * time.Microsecond, JitterSeed: seed, ArtifactDir: dir},
				}
				if n <= 16 {
					configs = append(configs,
						ReplayOpts{Kind: "tcp", JitterSeed: seed, ArtifactDir: dir},
						ReplayOpts{Kind: "tcp", Nodes: 4, JitterSeed: seed, ArtifactDir: dir})
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

// TestScheduleSuiteCoversE1ThroughE16 pins that the differential corpus
// really spans every experiment family.
func TestScheduleSuiteCoversE1ThroughE16(t *testing.T) {
	suite := ScheduleSuite(8, 1)
	seen := map[string]bool{}
	for _, s := range suite {
		fam := strings.SplitN(s.Name, "-", 2)[0]
		seen[fam] = true
		if s.Spec.Adversary == nil {
			t.Fatalf("%s: nil adversary", s.Name)
		}
		if len(s.Spec.Proposals) != s.Spec.Adversary.N() {
			t.Fatalf("%s: %d proposals for n=%d", s.Name, len(s.Spec.Proposals), s.Spec.Adversary.N())
		}
	}
	for e := 1; e <= 16; e++ {
		if !seen[fmt.Sprintf("E%d", e)] {
			t.Errorf("suite has no schedule for experiment family E%d", e)
		}
	}
}

// TestDivergenceArtifactsDoNotCollide pins content naming: two
// different realized runs of equal length, written into one directory
// (as the chaos soak's parallel subtests do), must land in two files,
// each replaying its own run; rewriting a run reuses its name.
func TestDivergenceArtifactsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	isolated := graph.NewFullDigraph(4)
	isolated.AddSelfLoops()
	a := adversary.NewRun([]*graph.Digraph{graph.CompleteDigraph(4)}, graph.CompleteDigraph(4))
	b := adversary.NewRun([]*graph.Digraph{graph.CompleteDigraph(4)}, isolated)
	pa, err := writeDivergence(dir, a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := writeDivergence(dir, b)
	if err != nil {
		t.Fatal(err)
	}
	if pa == pb {
		t.Fatalf("two different runs of equal length share the artifact %s", pa)
	}
	if again, _ := writeDivergence(dir, a); again != pa {
		t.Errorf("the same run was named %s, then %s", pa, again)
	}
	for path, want := range map[string]*adversary.Run{pa: a, pb: b} {
		got, err := runfile.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(runfile.Encode(got), runfile.Encode(want)) {
			t.Errorf("%s does not replay the run written to it", path)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 2 {
		t.Errorf("artifact dir holds %d files, want 2", len(files))
	}
}
