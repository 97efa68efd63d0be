// Command lowerbound explores the paper's Theorem 2 construction: the run
// in which a set L of k-1 processes hears only itself and one source s is
// heard by everyone else. It prints the stable skeleton, verifies that
// Psrcs(k) holds while Psrcs(k-1) fails, runs Algorithm 1, and shows that
// exactly k distinct values are decided — the tightness of the predicate.
//
// Usage:
//
//	lowerbound [-n 8] [-k 3] [-conservative]
package main

import (
	"flag"
	"fmt"
	"log"

	"kset/internal/adversary"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/predicate"
	"kset/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lowerbound: ")
	var (
		n            = flag.Int("n", 8, "number of processes")
		k            = flag.Int("k", 3, "k of Psrcs(k); the run forces exactly k values")
		conservative = flag.Bool("conservative", false, "use the repaired line-28 guard")
	)
	flag.Parse()
	if *k < 2 || *k >= *n {
		log.Fatalf("need 2 <= k < n (got n=%d k=%d)", *n, *k)
	}

	run := adversary.LowerBound(*n, *k)
	skel := run.StableSkeleton()
	fmt.Printf("Theorem 2 construction, n=%d k=%d\n", *n, *k)
	fmt.Printf("L (hear only themselves): %v\n", adversary.LowerBoundIsolated(*k))
	fmt.Printf("2-source s: p%d (heard by every process outside L)\n\n",
		adversary.LowerBoundSource(*k)+1)
	fmt.Println("stable skeleton:")
	fmt.Print(graph.ASCII(skel))

	fmt.Printf("\nPsrcs(%d) holds: %v   Psrcs(%d) holds: %v   MinK: %d\n",
		*k, predicate.Holds(skel, *k), *k-1, predicate.Holds(skel, *k-1),
		predicate.MinK(skel))
	if S, bad := predicate.Violation(skel, *k-1); bad {
		fmt.Printf("witness violating Psrcs(%d): %v has no 2-source\n", *k-1, S)
	}

	out, err := sim.Execute(sim.Spec{
		Adversary: run,
		Proposals: sim.SeqProposals(*n),
		Params:    core.Options{ConservativeDecide: *conservative},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(out.String())
	distinct := len(out.DistinctDecisions())
	fmt.Printf("\ndistinct decisions: %d (expected exactly %d)\n", distinct, *k)
	switch {
	case distinct == *k:
		fmt.Printf("=> Psrcs(%d) is tight: (%d)-set agreement is impossible here, "+
			"and Algorithm 1 realizes the bound.\n", *k, *k-1)
	case distinct < *k:
		fmt.Println("=> fewer values than the bound (unexpected for this construction)")
	default:
		log.Fatalf("k-agreement violated: %d > %d", distinct, *k)
	}
}
