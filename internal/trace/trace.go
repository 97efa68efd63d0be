// Package trace collects and checks the outcome of agreement runs: who
// decided what, when, and whether the run satisfies the three properties
// of k-set agreement (Section II-A of the paper) — k-agreement, validity,
// and termination — plus irrevocability, which the round executors
// guarantee structurally (deciders are write-once).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"kset/internal/rounds"
)

// Outcome is the decision summary of one finished run.
type Outcome struct {
	// N is the number of processes.
	N int
	// Rounds is the number of rounds executed.
	Rounds int
	// Proposals[i] is process i's initial value.
	Proposals []int64
	// Decided[i] reports whether process i decided.
	Decided []bool
	// Decisions[i] is process i's decision (valid only if Decided[i]).
	Decisions []int64
	// DecideRounds[i] is the round of process i's decision (valid only
	// if Decided[i]).
	DecideRounds []int
}

// Collect extracts an Outcome from an executor result. Every process
// must implement rounds.Decider.
func Collect(res *rounds.Result) (*Outcome, error) {
	n := len(res.Procs)
	o := &Outcome{
		N:            n,
		Rounds:       res.Rounds,
		Proposals:    make([]int64, n),
		Decided:      make([]bool, n),
		Decisions:    make([]int64, n),
		DecideRounds: make([]int, n),
	}
	for i, p := range res.Procs {
		d, ok := p.(rounds.Decider)
		if !ok {
			return nil, fmt.Errorf("trace: process %d (%T) is not a Decider", i, p)
		}
		o.Proposals[i] = d.Proposal()
		if d.Decided() {
			o.Decided[i] = true
			o.Decisions[i], o.DecideRounds[i] = d.Decision()
		}
	}
	return o, nil
}

// DistinctDecisions returns the sorted distinct decided values.
func (o *Outcome) DistinctDecisions() []int64 {
	seen := map[int64]bool{}
	for i := range o.Decisions {
		if o.Decided[i] {
			seen[o.Decisions[i]] = true
		}
	}
	out := make([]int64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DistinctDecisionsAmong returns the sorted distinct values decided by
// the processes selected by include. Classical crash-model guarantees
// (e.g. FloodMin's) quantify only over surviving processes; this lets the
// harness evaluate them on their own terms.
func (o *Outcome) DistinctDecisionsAmong(include func(i int) bool) []int64 {
	seen := map[int64]bool{}
	for i := range o.Decisions {
		if o.Decided[i] && include(i) {
			seen[o.Decisions[i]] = true
		}
	}
	out := make([]int64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MaxDecisionRound returns the latest decision round, or 0 if nobody
// decided.
func (o *Outcome) MaxDecisionRound() int {
	m := 0
	for i, r := range o.DecideRounds {
		if o.Decided[i] && r > m {
			m = r
		}
	}
	return m
}

// CheckTermination returns an error naming every undecided process.
func (o *Outcome) CheckTermination() error { return o.CheckTerminationExcept(nil) }

// CheckTerminationExcept is CheckTermination skipping the processes
// marked in exempt (nil = none), e.g. those that crashed undecided.
func (o *Outcome) CheckTerminationExcept(exempt []bool) error {
	var missing []string
	for i, d := range o.Decided {
		if !d && (exempt == nil || !exempt[i]) {
			missing = append(missing, fmt.Sprintf("p%d", i+1))
		}
	}
	if missing != nil {
		return fmt.Errorf("trace: termination violated after %d rounds: %s undecided",
			o.Rounds, strings.Join(missing, ", "))
	}
	return nil
}

// CheckValidity returns an error if any decision is not some process's
// proposal.
func (o *Outcome) CheckValidity() error {
	valid := map[int64]bool{}
	for _, v := range o.Proposals {
		valid[v] = true
	}
	for i := range o.Decisions {
		if o.Decided[i] && !valid[o.Decisions[i]] {
			return fmt.Errorf("trace: validity violated: p%d decided %d, never proposed",
				i+1, o.Decisions[i])
		}
	}
	return nil
}

// CheckKAgreement returns an error if more than k distinct values were
// decided.
func (o *Outcome) CheckKAgreement(k int) error {
	if got := len(o.DistinctDecisions()); got > k {
		return fmt.Errorf("trace: %d-agreement violated: %d distinct decisions %v",
			k, got, o.DistinctDecisions())
	}
	return nil
}

// CheckDecisionFloor returns an error if any process decided before the
// given round floor. Algorithm 1's line-28 guard admits connectivity
// decisions only from round n (2n-1 with the conservative repair), and
// line-12 adoptions can only follow an earlier decision, so no decision
// round may precede the floor; the falsification engine (internal/check)
// uses this as an oracle against guard regressions.
func (o *Outcome) CheckDecisionFloor(floor int) error {
	for i, r := range o.DecideRounds {
		if o.Decided[i] && r < floor {
			return fmt.Errorf("trace: p%d decided in round %d, before the floor %d",
				i+1, r, floor)
		}
	}
	return nil
}

// Check verifies termination, validity, and k-agreement together.
func (o *Outcome) Check(k int) error {
	if err := o.CheckTermination(); err != nil {
		return err
	}
	if err := o.CheckValidity(); err != nil {
		return err
	}
	return o.CheckKAgreement(k)
}

// String renders a compact per-process table of the outcome.
func (o *Outcome) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run of %d processes, %d rounds, decisions %v\n",
		o.N, o.Rounds, o.DistinctDecisions())
	for i := 0; i < o.N; i++ {
		if o.Decided[i] {
			fmt.Fprintf(&b, "  p%-3d proposed %-6d decided %-6d (round %d)\n",
				i+1, o.Proposals[i], o.Decisions[i], o.DecideRounds[i])
		} else {
			fmt.Fprintf(&b, "  p%-3d proposed %-6d UNDECIDED\n", i+1, o.Proposals[i])
		}
	}
	return b.String()
}
