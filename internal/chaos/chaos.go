// Package chaos is the crash-fault harness: seeded generators for crash
// and stall plans, and a differential battery that drives live runs with
// real process deaths over every transport and proves each one replays
// bit-for-bit through the lockstep simulator (runtime.Replay).
//
// Determinism discipline: every plan is a pure function of its seed, so
// a battery config names a reproducible chaos scenario — the same
// property that makes the repo's adversary schedules and loss patterns
// replayable extends to who dies, when, where in the round, and who
// hears the dying breath.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/core"
	"kset/internal/graph"
	"kset/internal/runtime"
	"kset/internal/sim"
	"kset/internal/transport"
)

// RandomCrashPlan builds a seeded plan killing `crashes` distinct
// processes at rounds in [2, maxRound], sites cycling through
// before/mid/after-send with seeded partial sets for the mid-send
// victims. Victims are chosen uniformly; crashes is clamped to n-1 (the
// harness always keeps a survivor).
func RandomCrashPlan(n, crashes, maxRound int, seed int64, notify bool) *runtime.CrashPlan {
	if crashes > n-1 {
		crashes = n - 1
	}
	if maxRound < 2 {
		maxRound = 2
	}
	rng := rand.New(rand.NewSource(seed))
	plan := &runtime.CrashPlan{
		Round:   make([]int, n),
		Site:    make([]runtime.CrashSite, n),
		Partial: make([]graph.NodeSet, n),
		Notify:  notify,
	}
	victims := rng.Perm(n)[:crashes]
	for k, v := range victims {
		plan.Round[v] = 2 + rng.Intn(maxRound-1)
		plan.Site[v] = runtime.CrashSite(k % 3)
		if plan.Site[v] == runtime.CrashMidSend {
			plan.Partial[v] = randomSubset(n, rng)
		}
	}
	return plan
}

// SiteCrashPlan builds a single-victim plan: process victim dies in
// round r at the given site, reaching exactly the receivers in partial
// when the site is mid-send.
func SiteCrashPlan(n, victim, r int, site runtime.CrashSite, notify bool, partial ...int) *runtime.CrashPlan {
	plan := &runtime.CrashPlan{
		Round:   make([]int, n),
		Site:    make([]runtime.CrashSite, n),
		Partial: make([]graph.NodeSet, n),
		Notify:  notify,
	}
	plan.Round[victim] = r
	plan.Site[victim] = site
	if site == runtime.CrashMidSend {
		plan.Partial[victim] = graph.NodeSetOf(partial...)
	}
	return plan
}

// RandomStallPlan builds a seeded plan delaying `stalled` distinct
// processes' sends by delay for a window of `span` rounds starting in
// [2, 2+maxStart).
func RandomStallPlan(n, stalled, span, maxStart int, delay time.Duration, seed int64) *runtime.StallPlan {
	if stalled > n {
		stalled = n
	}
	if maxStart < 1 {
		maxStart = 1
	}
	rng := rand.New(rand.NewSource(seed))
	plan := &runtime.StallPlan{
		From:  make([]int, n),
		To:    make([]int, n),
		Delay: make([]time.Duration, n),
	}
	for _, v := range rng.Perm(n)[:stalled] {
		plan.From[v] = 2 + rng.Intn(maxStart)
		plan.To[v] = plan.From[v] + span - 1
		plan.Delay[v] = delay
	}
	return plan
}

// randomSubset returns a uniformly random subset of {0..n-1} (possibly
// empty: a mid-send crash that reached nobody).
func randomSubset(n int, rng *rand.Rand) graph.NodeSet {
	s := graph.NewNodeSet(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Add(i)
		}
	}
	return s
}

// BatteryConfig names one crash-replay scenario of the differential
// battery.
type BatteryConfig struct {
	Name      string
	Algorithm string // registered family; "" = kset
	Kind      string // "inproc", "tcp", "udp"
	N         int
	Crashes   int
	Seed      int64
}

// BatteryConfigs enumerates the acceptance battery: every transport ×
// n ∈ {8, 16}, two crashes each, sites cycling through all three crash
// sites per plan (RandomCrashPlan assigns before/mid/after in victim
// order), plus one graph approximate agreement lane per transport at
// n = 8. In-proc runs announced crashes (the transport has no deadline
// machinery); the socket meshes run silent crashes and must detect them
// by stall.
func BatteryConfigs() []BatteryConfig {
	var cfgs []BatteryConfig
	for _, kind := range []string{"inproc", "tcp", "udp"} {
		for _, n := range []int{8, 16} {
			for seed := int64(1); seed <= 3; seed++ {
				cfgs = append(cfgs, BatteryConfig{
					Name:    fmt.Sprintf("%s-n%d-s%d", kind, n, seed),
					Kind:    kind,
					N:       n,
					Crashes: 2,
					Seed:    seed,
				})
			}
		}
		cfgs = append(cfgs, BatteryConfig{
			Name:      fmt.Sprintf("approx-%s-n8-s1", kind),
			Algorithm: algo.Approx,
			Kind:      kind,
			N:         8,
			Crashes:   2,
			Seed:      1,
		})
	}
	return cfgs
}

// batterySpec is the seeded schedule of one battery config: for kset,
// Algorithm 1 with the repaired decision guard over a fixed-length
// window; for approx, seeded path-graph proposals run to the family's
// resolved decide round.
func batterySpec(cfg BatteryConfig) sim.Spec {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.N
	spec := sim.Spec{
		Algorithm: cfg.Algorithm,
		Adversary: adversary.RandomSources(n, 1+rng.Intn(2), n/2, 0.3, rng),
		Proposals: sim.SeqProposals(n),
	}
	if cfg.Algorithm == algo.Approx {
		for i := range spec.Proposals {
			spec.Proposals[i] = int64(rng.Intn(n + 1))
		}
		return spec
	}
	spec.Params = core.Options{ConservativeDecide: true}
	spec.MaxRounds = 4*n + 20
	return spec
}

// Run executes one battery config: a seeded adversary schedule, a
// seeded crash plan, a live run over the config's transport, and the
// replay verification. artifactDir, when non-empty, receives a .ksr of
// the realized graphs if the replay diverges.
func Run(cfg BatteryConfig, artifactDir string) (*runtime.ReplayReport, error) {
	n := cfg.N
	opts := runtime.ReplayOpts{
		Kind:        cfg.Kind,
		Crash:       RandomCrashPlan(n, cfg.Crashes, n/2+2, cfg.Seed, cfg.Kind == "inproc"),
		ArtifactDir: artifactDir,
	}
	switch cfg.Kind {
	case "inproc":
		// Announced crashes: MarkDead is the supervisor's notice.
	case "tcp":
		opts.TCP.Stall = transport.StallOpts{
			RoundTimeout: 25 * time.Millisecond,
			DeadAfter:    4,
			MaxReconnect: 2,
		}
	case "udp":
		opts.UDP = transport.UDPOpts{
			RoundTimeout: 15 * time.Millisecond,
			Grace:        2 * time.Millisecond,
			DeadAfter:    4,
		}
	default:
		return nil, fmt.Errorf("chaos: unknown transport kind %q", cfg.Kind)
	}
	return runtime.Replay(batterySpec(cfg), opts)
}
