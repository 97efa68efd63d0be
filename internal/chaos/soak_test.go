package chaos

import (
	"fmt"
	"os"
	"testing"
	"time"

	"kset/internal/algo"
	"kset/internal/runtime"
	"kset/internal/transport"
)

// TestChaosNightlySoak is the long-budget crash grid the nightly
// workflow runs (KSET_NIGHTLY=1): every transport × n ∈ {8, 12, 16} ×
// 1–3 crashes × 6 seeds, each scenario replay-verified, plus a graph
// approximate agreement lane over every transport and a
// crashes-under-loss composition lane on UDP (injected deaths *and* 10%
// injected frame loss in the same run). Divergence runfiles land in
// KSET_ARTIFACT_DIR for upload.
func TestChaosNightlySoak(t *testing.T) {
	if os.Getenv("KSET_NIGHTLY") == "" {
		t.Skip("nightly chaos soak; set KSET_NIGHTLY=1 to run")
	}
	artifactDir := os.Getenv("KSET_ARTIFACT_DIR")

	var cfgs []BatteryConfig
	for _, kind := range []string{"inproc", "tcp", "udp"} {
		for _, n := range []int{8, 12, 16} {
			for crashes := 1; crashes <= 3; crashes++ {
				for seed := int64(1); seed <= 6; seed++ {
					cfgs = append(cfgs, BatteryConfig{
						Name:    fmt.Sprintf("%s-n%d-c%d-s%d", kind, n, crashes, seed),
						Kind:    kind,
						N:       n,
						Crashes: crashes,
						Seed:    seed,
					})
				}
			}
		}
		for seed := int64(1); seed <= 6; seed++ {
			cfgs = append(cfgs, BatteryConfig{
				Name:      fmt.Sprintf("approx-%s-n8-c2-s%d", kind, seed),
				Algorithm: algo.Approx,
				Kind:      kind,
				N:         8,
				Crashes:   2,
				Seed:      seed,
			})
		}
	}
	for _, cfg := range cfgs {
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(cfg, artifactDir)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.KBound {
				t.Errorf("k-bound violation: %d distinct decisions, realized MinK %d",
					rep.Distinct, rep.Replay.MinK)
			}
		})
	}

	// Composition lane: crashes and wire loss at once. The replay must
	// still be exact — the realized heard-sets absorb both cut and loss.
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("udp-loss-crash-s%d", seed), func(t *testing.T) {
			t.Parallel()
			const n = 8
			rep, err := runtime.Replay(batterySpec(BatteryConfig{N: n, Seed: seed}), runtime.ReplayOpts{
				Kind: "udp",
				UDP: transport.UDPOpts{
					RoundTimeout: 15 * time.Millisecond,
					Grace:        2 * time.Millisecond,
					DeadAfter:    4,
				},
				Loss:        0.10,
				LossSeed:    seed,
				Crash:       RandomCrashPlan(n, 2, n/2+2, seed, false),
				ArtifactDir: artifactDir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.KBound {
				t.Errorf("k-bound violation under loss+crash: %d distinct, realized MinK %d",
					rep.Distinct, rep.Replay.MinK)
			}
		})
	}
}
