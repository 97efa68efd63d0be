// Benchmarks: one per reproduction experiment (DESIGN.md §3, E1-E12),
// plus microbenchmarks of the hot paths. Run with
//
//	go test -bench=. -benchmem
//
// Each experiment bench executes the same code path as cmd/ksetbench and
// reports domain metrics (rounds, bytes, decision counts) through
// b.ReportMetric so the shape of the paper's claims is visible straight
// from the bench output.
package kset_test

import (
	"math/rand"
	"sync"
	"testing"

	"kset"
	"kset/internal/adversary"
	"kset/internal/baseline"
	"kset/internal/core"
	"kset/internal/experiments"
	"kset/internal/graph"
	"kset/internal/predicate"
	"kset/internal/sim"
	"kset/internal/skeleton"
	"kset/internal/transport"
	"kset/internal/wire"
)

// BenchmarkE1Figure1 runs the full Figure 1 reproduction (approximation
// trace plus decision check).
func BenchmarkE1Figure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E1Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if res.Violations != 0 {
			b.Fatal("figure mismatch")
		}
	}
}

// BenchmarkE2RootComponents sweeps random skeletons and validates
// Theorem 1 (#roots <= MinK); the dominant cost is the exact
// independence-number computation.
func BenchmarkE2RootComponents(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(benchName("n", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			viol := 0
			for i := 0; i < b.N; i++ {
				skel := graph.RandomRootedSkeleton(n, 1+rng.Intn(n), rng)
				if _, _, ok := predicate.RootComponentBound(skel); !ok {
					viol++
				}
			}
			if viol != 0 {
				b.Fatalf("%d Theorem 1 violations", viol)
			}
		})
	}
}

// BenchmarkE3LowerBound runs the Theorem 2 construction to completion and
// reports the decision count (must be exactly k).
func BenchmarkE3LowerBound(b *testing.B) {
	for _, nk := range [][2]int{{8, 3}, {16, 7}, {32, 15}} {
		n, k := nk[0], nk[1]
		b.Run(benchName("n", n), func(b *testing.B) {
			adv := adversary.LowerBound(n, k)
			for i := 0; i < b.N; i++ {
				out, err := sim.Execute(sim.Spec{Adversary: adv, Proposals: sim.SeqProposals(n)})
				if err != nil {
					b.Fatal(err)
				}
				if got := len(out.DistinctDecisions()); got != k {
					b.Fatalf("distinct = %d, want %d", got, k)
				}
				b.ReportMetric(float64(out.Rounds), "rounds/run")
			}
		})
	}
}

// BenchmarkE4DecisionRounds measures the termination latency of random
// Psrcs runs against the Lemma 11 bound.
func BenchmarkE4DecisionRounds(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(benchName("n", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			var last float64
			for i := 0; i < b.N; i++ {
				run := adversary.RandomSources(n, 1+rng.Intn(3), n/2, 0.25, rng)
				out, err := sim.Execute(sim.Spec{Adversary: run, Proposals: sim.SeqProposals(n)})
				if err != nil {
					b.Fatal(err)
				}
				if out.MaxDecisionRound() > out.RST+2*n-1 {
					b.Fatal("Lemma 11 bound violated")
				}
				last = float64(out.MaxDecisionRound())
			}
			b.ReportMetric(last, "lastDecision/run")
		})
	}
}

// BenchmarkE5MessageComplexity measures encoded message sizes; max bytes
// must stay polynomial in n (the Section V claim).
func BenchmarkE5MessageComplexity(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		b.Run(benchName("n", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			var maxBytes, avg float64
			for i := 0; i < b.N; i++ {
				run := adversary.RandomSources(n, 2, n/2, 0.3, rng)
				out, err := sim.Execute(sim.Spec{
					Adversary:     run,
					Proposals:     sim.SeqProposals(n),
					MeterMessages: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				maxBytes = float64(out.Meter.MaxBytes)
				avg = out.Meter.Avg()
			}
			b.ReportMetric(maxBytes, "maxB/msg")
			b.ReportMetric(avg, "avgB/msg")
		})
	}
}

// BenchmarkE6Baselines compares a full Algorithm 1 run against FloodMin
// on the same crash adversary.
func BenchmarkE6Baselines(b *testing.B) {
	n, f, k := 8, 3, 2
	b.Run("algorithm1", func(b *testing.B) {
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < b.N; i++ {
			run, _ := adversary.RandomCrashes(n, f, 3, rng)
			out, err := sim.Execute(sim.Spec{Adversary: run, Proposals: sim.SeqProposals(n)})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(out.Rounds), "rounds/run")
		}
	})
	b.Run("floodmin", func(b *testing.B) {
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < b.N; i++ {
			run, _ := adversary.RandomCrashes(n, f, 3, rng)
			out, err := sim.Execute(sim.Spec{
				Adversary:  run,
				NewProcess: floodMinFactory(n, f, k),
				MaxRounds:  f/k + 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(out.Rounds), "rounds/run")
		}
	})
}

// BenchmarkE7Consensus measures consensus latency on Psrcs(1) runs under
// the repaired guard.
func BenchmarkE7Consensus(b *testing.B) {
	for _, n := range []int{8, 16, 32} {
		b.Run(benchName("n", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < b.N; i++ {
				run := adversary.RandomSingleSource(n, rng.Intn(n), 0.2, 0.2, rng)
				out, err := sim.Execute(sim.Spec{
					Adversary: run,
					Proposals: sim.SeqProposals(n),
					Params:    core.Options{ConservativeDecide: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(out.DistinctDecisions()) != 1 {
					b.Fatal("consensus missed under repaired guard")
				}
				b.ReportMetric(float64(out.Rounds), "rounds/run")
			}
		})
	}
}

// BenchmarkE8Eventual runs the ♦Psrcs isolation-prefix demonstration.
func BenchmarkE8Eventual(b *testing.B) {
	n := 8
	for i := 0; i < b.N; i++ {
		out, err := sim.Execute(sim.Spec{
			Adversary: adversary.Eventual(adversary.Complete(n), n),
			Proposals: sim.SeqProposals(n),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(out.DistinctDecisions()) != n {
			b.Fatal("expected n distinct decisions")
		}
	}
}

// BenchmarkE9Ablations measures the paper-faithful configuration against
// the own-graph-merge variant on identical runs.
func BenchmarkE9Ablations(b *testing.B) {
	n := 16
	for _, v := range []struct {
		name string
		opts core.Options
	}{
		{"paper", core.Options{}},
		{"mergeOwn", core.Options{MergeOwnGraph: true}},
		{"purge2n", core.Options{PurgeWindow: 2 * n}},
		{"conservative", core.Options{ConservativeDecide: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < b.N; i++ {
				run := adversary.RandomSources(n, 2, n/2, 0.25, rng)
				out, err := sim.Execute(sim.Spec{
					Adversary: run,
					Proposals: sim.SeqProposals(n),
					Params:    v.opts,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(out.MaxDecisionRound()), "lastDecision/run")
			}
		})
	}
}

// BenchmarkE10GuardFlaw runs the deterministic counterexample under both
// guards.
func BenchmarkE10GuardFlaw(b *testing.B) {
	adv := adversary.ConsensusViolation()
	props := adversary.ConsensusViolationProposals()
	for _, v := range []struct {
		name string
		opts core.Options
		want int
	}{
		{"published", core.Options{}, 2},
		{"repaired", core.Options{ConservativeDecide: true}, 1},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := sim.Execute(sim.Spec{Adversary: adv, Proposals: props, Params: v.opts})
				if err != nil {
					b.Fatal(err)
				}
				if got := len(out.DistinctDecisions()); got != v.want {
					b.Fatalf("distinct = %d, want %d", got, v.want)
				}
			}
		})
	}
}

// --- microbenchmarks of the hot paths ---

// BenchmarkRoundTransition measures one full round of Algorithm 1
// transitions (the simulator's inner loop) at several scales.
func BenchmarkRoundTransition(b *testing.B) {
	for _, n := range []int{8, 32, 64} {
		b.Run(benchName("n", n), func(b *testing.B) {
			adv := adversary.Complete(n)
			procs := make([]*core.Process, n)
			factory := core.NewFactory(sim.SeqProposals(n), core.Options{})
			for i := range procs {
				procs[i] = factory(i).(*core.Process)
				procs[i].Init(i, n)
			}
			msgs := make([]any, n)
			recv := make([]any, n)
			g := adv.Graph(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := i + 1
				for j, p := range procs {
					msgs[j] = p.Send(r)
				}
				for q := 0; q < n; q++ {
					for j := range recv {
						recv[j] = nil
					}
					g.ForEachIn(q, func(p int) { recv[p] = msgs[p] })
					procs[q].Transition(r, recv)
				}
			}
		})
	}
}

// BenchmarkHotTransition measures one full round of Algorithm 1 on a
// complete graph — the zero-allocation steady state of the round engine
// (CI runs every BenchmarkHot* as a smoke test).
func BenchmarkHotTransition(b *testing.B) {
	for _, n := range []int{8, 32} {
		b.Run(benchName("n", n), func(b *testing.B) {
			procs := make([]*core.Process, n)
			factory := core.NewFactory(sim.SeqProposals(n), core.Options{})
			for i := range procs {
				procs[i] = factory(i).(*core.Process)
				procs[i].Init(i, n)
			}
			msgs := make([]any, n)
			r := 0
			round := func() {
				r++
				for j, p := range procs {
					msgs[j] = p.Send(r)
				}
				for _, p := range procs {
					p.Transition(r, msgs)
				}
			}
			for i := 0; i < 2*n+2; i++ {
				round() // reach the decided steady state
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkHotTransitionRing is the large-n variant of the round engine
// benchmark: a directed ring with self-loops keeps the per-round message
// volume linear in n, so the multi-word kernels (merge, purge, prune,
// connectivity) dominate instead of quadratic message fan-in. One op is
// one full round across all n processes.
func BenchmarkHotTransitionRing(b *testing.B) {
	for _, n := range []int{128, 256} {
		b.Run(benchName("n", n), func(b *testing.B) {
			ring := graph.NewFullDigraph(n)
			for v := 0; v < n; v++ {
				ring.AddEdge(v, v)
				ring.AddEdge(v, (v+1)%n)
			}
			procs := make([]*core.Process, n)
			factory := core.NewFactory(sim.SeqProposals(n), core.Options{})
			for i := range procs {
				procs[i] = factory(i).(*core.Process)
				procs[i].Init(i, n)
			}
			msgs := make([]any, n)
			recv := make([]any, n)
			r := 0
			round := func() {
				r++
				for j, p := range procs {
					msgs[j] = p.Send(r)
				}
				for q := 0; q < n; q++ {
					for j := range recv {
						recv[j] = nil
					}
					ring.ForEachIn(q, func(p int) { recv[p] = msgs[p] })
					procs[q].Transition(r, recv)
				}
			}
			for i := 0; i < 2*n+4; i++ {
				round() // reach the decided steady state
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkHotPruneInPlace measures the matrix-native line-25 prune with
// a warm scratch.
func BenchmarkHotPruneInPlace(b *testing.B) {
	for _, n := range []int{8, 32, 64, 128, 256} {
		b.Run(benchName("n", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(31))
			g := graph.NewLabeled(n)
			for i := 0; i < 3*n; i++ {
				g.MergeEdge(rng.Intn(n), rng.Intn(n), 1+rng.Intn(9))
			}
			work := g.Clone()
			var s graph.ReachScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(g)
				work.PruneUnreachableToInPlace(0, &s)
			}
		})
	}
}

// BenchmarkHotStronglyConnected measures the matrix-native line-28
// connectivity test with a warm scratch.
func BenchmarkHotStronglyConnected(b *testing.B) {
	for _, n := range []int{8, 32, 64, 128, 256} {
		b.Run(benchName("n", n), func(b *testing.B) {
			g := graph.NewLabeled(n)
			for v := 0; v < n; v++ {
				g.MergeEdge(v, (v+1)%n, 1)
			}
			var s graph.ReachScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !g.StronglyConnectedInto(&s) {
					b.Fatal("cycle not strongly connected")
				}
			}
		})
	}
}

// BenchmarkHotSkeletonObserve measures the skeleton tracker's word-level
// intersection in the post-stabilization regime.
func BenchmarkHotSkeletonObserve(b *testing.B) {
	n := 64
	g := kset.CompleteDigraph(n)
	tr := skeleton.NewTracker(n, false)
	tr.Observe(1, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(i+2, g)
	}
}

// BenchmarkHotSkeletonObserveWide is the multi-word variant of the
// skeleton tracker benchmark: the stable-intersection word loop over a
// 256-node complete graph (4 words per row).
func BenchmarkHotSkeletonObserveWide(b *testing.B) {
	n := 256
	g := kset.CompleteDigraph(n)
	tr := skeleton.NewTracker(n, false)
	tr.Observe(1, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(i+2, g)
	}
}

// BenchmarkSCC measures the strongly-connected-components kernel.
func BenchmarkSCC(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(benchName("n", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			g := graph.RandomDigraph(n, 0.1, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(graph.SCC(g)) == 0 {
					b.Fatal("no components")
				}
			}
		})
	}
}

// BenchmarkWireCodec measures message encode/decode round-trips.
func BenchmarkWireCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	n := 32
	g := graph.NewLabeled(n)
	for i := 0; i < 4*n; i++ {
		g.MergeEdge(rng.Intn(n), rng.Intn(n), 1+rng.Intn(100))
	}
	msg := core.Message{Kind: core.Prop, X: 12345, G: g}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.AppendEncode(buf[:0], msg)
		if _, err := wire.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(buf)), "B/msg")
}

// BenchmarkMinK measures the exact Psrcs MinK computation (independence
// number).
func BenchmarkMinK(b *testing.B) {
	for _, n := range []int{16, 32, 48} {
		b.Run(benchName("n", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			skel := graph.RandomRootedSkeleton(n, 3, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if predicate.MinK(skel) < 1 {
					b.Fatal("bad MinK")
				}
			}
		})
	}
}

// BenchmarkSolveFacade measures the one-call public entry point on the
// Figure 1 run.
func BenchmarkSolveFacade(b *testing.B) {
	adv := kset.Figure1()
	props := kset.SeqProposals(6)
	for i := 0; i < b.N; i++ {
		out, err := kset.Solve(adv, props)
		if err != nil {
			b.Fatal(err)
		}
		if out.Rounds != 8 {
			b.Fatal("unexpected round count")
		}
	}
}

// BenchmarkTransportRound measures one communication-closed round on
// the real transports — every process broadcasts a payload and gathers
// the full vector — with no algorithm or codec cost. One op is one
// round across all n endpoints (goroutines pace each other through
// round closure, so ns/op is the transport's round latency). The
// benchdiff gate watches these alongside the BenchmarkHot family.
func BenchmarkTransportRound(b *testing.B) {
	kinds := []struct {
		name string
		ns   []int
		make func(n int) (transport.Transport, error)
	}{
		{"inproc", []int{8, 32}, func(n int) (transport.Transport, error) { return transport.NewInProc(n, nil), nil }},
		// The fully distributed mesh runs only at n=8 here: at n=32 its
		// ~1000 in-flight buffers per round make pool-eviction alloc
		// counts GC-timing-dependent, which the benchdiff gate cannot
		// tolerate (E19 covers that shape's throughput instead).
		{"tcp", []int{8}, func(n int) (transport.Transport, error) { return transport.NewTCPLoopback(n, nil) }},
		{"tcpnodes2", []int{8, 32}, func(n int) (transport.Transport, error) { return transport.NewTCPMeshLoopback(n, 2, nil) }},
		// The UDP rows mirror the TCP ones (same n=8 restriction on the
		// fully distributed shape, for the same pool-eviction reason).
		// Default options: on a quiet loopback nothing is lost, so the
		// round deadline never fires and ns/op measures the datagram
		// batch path, not absence closure.
		{"udp", []int{8}, func(n int) (transport.Transport, error) {
			return transport.NewUDPMeshLoopback(n, n, nil, transport.UDPOpts{})
		}},
		{"udpnodes2", []int{8, 32}, func(n int) (transport.Transport, error) {
			return transport.NewUDPMeshLoopback(n, 2, nil, transport.UDPOpts{})
		}},
	}
	for _, kind := range kinds {
		for _, n := range kind.ns {
			b.Run(kind.name+"/"+benchName("n", n), func(b *testing.B) {
				tr, err := kind.make(n)
				if err != nil {
					b.Fatal(err)
				}
				defer tr.Close()
				eps := make([]transport.Endpoint, n)
				for i := range eps {
					if eps[i], err = tr.Endpoint(i); err != nil {
						b.Fatal(err)
					}
				}
				payload := make([]byte, 96)
				errs := make([]error, n)
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				wg.Add(n)
				for i := range eps {
					go func(self int) {
						defer wg.Done()
						ep := eps[self]
						var buf [][]byte
						for r := 1; r <= b.N; r++ {
							if err := ep.Broadcast(r, payload); err != nil {
								errs[self] = err
								return
							}
							if buf, err = ep.Gather(r, buf); err != nil {
								errs[self] = err
								return
							}
						}
					}(i)
				}
				wg.Wait()
				b.StopTimer()
				for i, err := range errs {
					if err != nil {
						b.Fatalf("endpoint %d: %v", i, err)
					}
				}
			})
		}
	}
}

// BenchmarkConcurrentExecutor compares the goroutine-per-process executor
// with the sequential one on identical workloads.
func BenchmarkConcurrentExecutor(b *testing.B) {
	n := 32
	rng := rand.New(rand.NewSource(14))
	run := adversary.RandomSources(n, 2, 4, 0.2, rng)
	for _, mode := range []struct {
		name       string
		concurrent bool
	}{{"sequential", false}, {"concurrent", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := sim.Execute(sim.Spec{
					Adversary:  run,
					Proposals:  sim.SeqProposals(n),
					Concurrent: mode.concurrent,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := out.CheckTermination(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func floodMinFactory(n, f, k int) func(int) kset.Algorithm {
	props := sim.SeqProposals(n)
	return func(self int) kset.Algorithm {
		return baseline.NewFloodMin(props[self], f, k)
	}
}

// BenchmarkE11Convergence measures the convergence-lag experiment (how
// long local views keep changing after the skeleton stabilizes).
func BenchmarkE11Convergence(b *testing.B) {
	cfg := experiments.QuickConfig()
	cfg.Trials = 3
	for i := 0; i < b.N; i++ {
		res, err := experiments.E11Convergence(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Violations != 0 {
			b.Fatal("convergence lag exceeded bound")
		}
	}
}
