package runtime

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/graph"
	"kset/internal/rounds"
	"kset/internal/sim"
	"kset/internal/transport"
)

// rawCodec carries opaque byte slices unchanged, for countingAlg's
// messages, which already are bytes.
type rawCodec struct{}

func (rawCodec) Encode(dst []byte, msg any) ([]byte, error) {
	b, ok := msg.([]byte)
	if !ok {
		return nil, fmt.Errorf("rawCodec got %T, want []byte", msg)
	}
	return append(dst, b...), nil
}

func (rawCodec) NewDecoder(n int) Decoder { return rawCodec{} }

func (rawCodec) Decode(from int, payload []byte) (any, error) { return payload, nil }

// countingAlg is a minimal algorithm for control-plane tests: it
// broadcasts (self, round) as raw bytes and counts what it hears.
type countingAlg struct {
	self, n int
	rounds  int
	heard   int
}

func (a *countingAlg) Init(self, n int) { a.self, a.n = self, n }
func (a *countingAlg) Send(r int) any   { return []byte{byte(a.self), byte(r)} }
func (a *countingAlg) Transition(r int, recv []any) {
	a.rounds = r
	for _, m := range recv {
		if m != nil {
			a.heard++
		}
	}
}

func TestRunExecutesMaxRoundsAndNotifiesObserver(t *testing.T) {
	n, maxRounds := 4, 7
	var observed []int
	cfg := rounds.Config{
		Adversary:  adversary.Complete(n),
		NewProcess: func(self int) rounds.Algorithm { return &countingAlg{} },
		MaxRounds:  maxRounds,
		Observer: rounds.ObserverFunc(func(r int, g *graph.Digraph, procs []rounds.Algorithm) {
			observed = append(observed, r)
			for i, p := range procs {
				if got := p.(*countingAlg).rounds; got != r {
					t.Errorf("observer at round %d: p%d has only transitioned %d rounds", r, i+1, got)
				}
			}
		}),
	}
	res, err := Run(cfg, transport.NewInProc(n, nil), rawCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != maxRounds || res.Stopped {
		t.Fatalf("Rounds = %d, Stopped = %v; want %d, false", res.Rounds, res.Stopped, maxRounds)
	}
	if len(observed) != maxRounds {
		t.Fatalf("observer saw rounds %v, want 1..%d", observed, maxRounds)
	}
	for i, r := range observed {
		if r != i+1 {
			t.Fatalf("observer saw rounds %v out of order", observed)
		}
	}
	for i, p := range res.Procs {
		if got := p.(*countingAlg).heard; got != n*maxRounds {
			t.Fatalf("p%d heard %d messages over a complete graph, want %d", i+1, got, n*maxRounds)
		}
	}
}

func TestRunStopWhen(t *testing.T) {
	n := 3
	cfg := rounds.Config{
		Adversary:  adversary.Complete(n),
		NewProcess: func(self int) rounds.Algorithm { return &countingAlg{} },
		MaxRounds:  50,
		StopWhen:   func(r int, procs []rounds.Algorithm) bool { return r == 4 },
	}
	res, err := Run(cfg, transport.NewInProc(n, nil), rawCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 4 || !res.Stopped {
		t.Fatalf("Rounds = %d, Stopped = %v; want 4, true", res.Rounds, res.Stopped)
	}
}

// badGraphAdversary violates the model (missing self-loop) from a given
// round on; Run must surface the same structural error the sequential
// executor reports.
type badGraphAdversary struct {
	n    int
	from int
}

func (a badGraphAdversary) N() int { return a.n }
func (a badGraphAdversary) Graph(r int) *graph.Digraph {
	g := graph.CompleteDigraph(a.n)
	if r >= a.from {
		g.RemoveEdge(0, 0)
	}
	return g
}

func TestRunRejectsInvalidGraph(t *testing.T) {
	n := 3
	cfg := rounds.Config{
		Adversary:  badGraphAdversary{n: n, from: 3},
		NewProcess: func(self int) rounds.Algorithm { return &countingAlg{} },
		MaxRounds:  10,
	}
	_, err := Run(cfg, transport.NewInProc(n, nil), rawCodec{})
	if err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("Run with a self-loop-free round graph returned %v, want structural error", err)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(rounds.Config{}, transport.NewInProc(1, nil), rawCodec{}); err == nil {
		t.Fatal("Run accepted an empty Config")
	}
	cfg := rounds.Config{
		Adversary:  adversary.Complete(3),
		NewProcess: func(self int) rounds.Algorithm { return &countingAlg{} },
		MaxRounds:  5,
	}
	if _, err := Run(cfg, transport.NewInProc(2, nil), rawCodec{}); err == nil {
		t.Fatal("Run accepted a transport sized for the wrong n")
	}
}

// TestRunnerMatchesSequentialExecutor is the narrow end of the
// differential harness: the full sim pipeline over the runtime equals
// the lockstep executor on a nontrivial schedule, for both transports.
func TestRunnerMatchesSequentialExecutor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	run := adversary.RandomSources(8, 2, 6, 0.3, rng)
	for _, kind := range []string{"inproc", "tcp"} {
		spec := sim.Spec{Adversary: run, Proposals: sim.SeqProposals(8)}
		if err := Diff(spec, ReplayOpts{Kind: kind}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

func TestWireCodecRejectsForeignMessage(t *testing.T) {
	if _, err := (algo.KSetCodec{}).Encode(nil, "not a message"); err == nil {
		t.Fatal("the kset wire codec encoded a string")
	}
	dec := algo.KSetCodec{}.NewDecoder(2)
	if _, err := dec.Decode(5, nil); err == nil {
		t.Fatal("decoder accepted out-of-range sender")
	}
	if _, err := dec.Decode(0, []byte{0xFF}); err == nil {
		t.Fatal("decoder accepted garbage payload")
	}
}

// TestRunnerEncodesRealWireBytes pins that the runtime's data plane
// really is the internal/wire encoding: a metered runtime run must
// account the same bytes the simulator's meter sees.
func TestRunnerEncodesRealWireBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	run := adversary.RandomSources(6, 2, 4, 0.3, rng)
	spec := sim.Spec{Adversary: run, Proposals: sim.SeqProposals(6), MeterMessages: true}
	if err := Diff(spec, ReplayOpts{}); err != nil {
		t.Fatal(err)
	}
}

func ExampleNewRunner() {
	// Replay the paper's Figure 1 run over real TCP sockets and check
	// the decisions against the lockstep simulator.
	spec := sim.Spec{
		Adversary: adversary.Figure1(),
		Proposals: sim.SeqProposals(6),
		Runner:    NewRunner(RunnerOpts{Kind: "tcp"}),
	}
	out, err := sim.Execute(spec)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("decisions:", out.DistinctDecisions())
	// Output:
	// decisions: [1 2]
}
