// Command ksetload drives the distributed stack for smoke tests and the
// E18 throughput measurements.
//
// Service mode exercises a running ksetd over its TCP HTTP API — the CI
// gauntlet's e2e smoke:
//
//	ksetload -mode service -addr http://127.0.0.1:8347 \
//	    -sessions 100 -batch 10 -clients 4 [-n 8] [-seed 1] [-timeout 120s]
//
// It waits for /healthz, submits the sessions in concurrent batches,
// polls every session to completion, fails unless every session decided
// within the k-bound (distinct <= MinK), scrapes /metrics for
// consistent counters, and reports sessions/sec.
//
// Runtime mode measures raw round throughput of one distributed run —
// rounds/sec over in-proc channels, TCP loopback, best-effort UDP, or
// the lockstep simulator for reference (EXPERIMENTS.md §E18, §E21):
//
//	ksetload -mode runtime -transport inproc|tcp|udp|sim -n 16 -rounds 200 -trials 3
//
// TCP and UDP runs take -nodes to group the n processes onto fewer mesh
// nodes (coalesced frames; 0 = one node per process). UDP runs take
// -loss to additionally lose that fraction of frames i.i.d. on the wire
// (deterministic from -seed), or -loss-model ge with -burst/-gap for
// Gilbert–Elliott bursty loss at rate burst/(burst+gap); the algorithm
// tolerates the loss, so the run still completes — slower, since lossy
// rounds close by deadline. -floor FAILS the run if the measured median
// falls below the given rounds/sec — the CI throughput smoke uses it as
// a regression tripwire. -cpuprofile writes a pprof CPU profile
// covering the measured trials.
//
// Chaos mode measures graceful degradation under real process crashes
// (EXPERIMENTS.md §E22): for each crash count 0..-crashes it runs
// -trials seeded chaos scenarios through internal/chaos — live run,
// injected deaths, replay verification — and reports rounds/sec,
// realized loss, and the agreement outcome per row:
//
//	ksetload -mode chaos -transport inproc|tcp|udp -n 8 -crashes 2 -trials 3
//
// Every scenario must pass the crash-replay differential and the
// agreement bound; -min-frac additionally FAILS the run unless every
// crashed row sustains that fraction of the 0-crash throughput.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"kset/internal/adversary"
	"kset/internal/chaos"
	"kset/internal/runtime"
	"kset/internal/service"
	"kset/internal/sim"
	ktransport "kset/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ksetload: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ksetload", flag.ContinueOnError)
	fs.SetOutput(stdout)
	mode := fs.String("mode", "service", "service (drive a ksetd), runtime (rounds/sec measurement), or chaos (crash-fault degradation)")
	// Service mode.
	addr := fs.String("addr", "http://127.0.0.1:8347", "base URL of the ksetd under test")
	sessions := fs.Int("sessions", 100, "total sessions to submit")
	batch := fs.Int("batch", 10, "sessions per submission request")
	clients := fs.Int("clients", 4, "concurrent submitting/polling clients")
	timeout := fs.Duration("timeout", 120*time.Second, "overall deadline for the service smoke")
	wait := fs.Duration("wait", 30*time.Second, "how long to wait for /healthz")
	// Shared / runtime mode.
	n := fs.Int("n", 8, "processes per session/run")
	seed := fs.Int64("seed", 1, "base seed")
	transport := fs.String("transport", "inproc", "runtime mode: inproc, tcp, udp, or sim (lockstep reference)")
	rounds := fs.Int("rounds", 200, "runtime mode: rounds per trial")
	trials := fs.Int("trials", 3, "runtime mode: trials (median reported)")
	nodes := fs.Int("nodes", 0, "runtime mode, tcp/udp: mesh nodes to group processes onto (0 = one per process)")
	loss := fs.Float64("loss", 0, "runtime mode, udp: i.i.d. frame loss probability injected on the wire")
	lossModel := fs.String("loss-model", "iid", "runtime mode, udp: iid (each frame independently, -loss) or ge (Gilbert-Elliott bursts, -burst/-gap)")
	burst := fs.Float64("burst", 4, "runtime mode, udp, -loss-model ge: mean burst length in rounds (lossy state)")
	gap := fs.Float64("gap", 36, "runtime mode, udp, -loss-model ge: mean gap length in rounds (clean state)")
	floor := fs.Float64("floor", 0, "runtime mode: fail unless median rounds/sec reaches this floor (0 = no check)")
	cpuprofile := fs.String("cpuprofile", "", "runtime mode: write a CPU profile of the measured trials to this file")
	crashes := fs.Int("crashes", 2, "chaos mode: maximum injected crashes (rows run 0..crashes)")
	minFrac := fs.Float64("min-frac", 0, "chaos mode: fail unless every crashed row sustains this fraction of the 0-crash throughput (0 = no check)")
	asJSON := fs.Bool("json", false, "emit a JSON summary instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	switch *mode {
	case "service":
		return runService(stdout, *addr, *sessions, *batch, *clients, *n, *seed, *timeout, *wait, *asJSON)
	case "runtime":
		return runRuntime(stdout, runtimeParams{
			transport: *transport, n: *n, rounds: *rounds, trials: *trials,
			nodes: *nodes, loss: *loss, lossModel: *lossModel, burst: *burst, gap: *gap,
			seed: *seed, floor: *floor, cpuprofile: *cpuprofile, asJSON: *asJSON,
		})
	case "chaos":
		return runChaos(stdout, chaosParams{
			transport: *transport, n: *n, crashes: *crashes, trials: *trials,
			seed: *seed, minFrac: *minFrac, asJSON: *asJSON,
		})
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
}

// serviceSummary is the -json output of service mode.
type serviceSummary struct {
	Sessions       int     `json:"sessions"`
	Seconds        float64 `json:"seconds"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	RoundsTotal    int     `json:"rounds_total"`
	Completed      int     `json:"metrics_completed_total"`
}

func runService(stdout io.Writer, addr string, total, batch, clients, n int, seed int64, timeout, wait time.Duration, asJSON bool) error {
	if batch < 1 || total < 1 || clients < 1 {
		return fmt.Errorf("need positive -sessions, -batch, -clients")
	}
	addr = strings.TrimRight(addr, "/")
	if err := waitHealthy(addr, wait); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	families := []string{"rooted", "single_source", "lowerbound", "partition_merge", "vertex_stable", "complete"}
	specs := make([]service.SessionSpec, total)
	for i := range specs {
		sn := 2 + (n+i)%15
		specs[i] = service.SessionSpec{
			N:      sn,
			Family: families[i%len(families)],
			Seed:   seed + int64(i),
			Noisy:  i % 5,
			Roots:  1 + i%min(3, sn),
		}
	}

	start := time.Now()
	ids := make([]string, 0, total)
	type submitOut struct {
		ids []string
		err error
	}
	work := make(chan []service.SessionSpec, (total+batch-1)/batch)
	for lo := 0; lo < total; lo += batch {
		hi := min(lo+batch, total)
		work <- specs[lo:hi]
	}
	close(work)
	outs := make(chan submitOut, clients)
	for c := 0; c < clients; c++ {
		go func() {
			var got []string
			for b := range work {
				ids, err := submitBatch(addr, b)
				if err != nil {
					outs <- submitOut{err: err}
					return
				}
				got = append(got, ids...)
			}
			outs <- submitOut{ids: got}
		}()
	}
	for c := 0; c < clients; c++ {
		o := <-outs
		if o.err != nil {
			return o.err
		}
		ids = append(ids, o.ids...)
	}
	if len(ids) != total {
		return fmt.Errorf("service accepted %d of %d sessions", len(ids), total)
	}

	roundsTotal := 0
	for _, id := range ids {
		sess, err := pollDone(addr, id, deadline)
		if err != nil {
			return err
		}
		if sess.Status != "done" {
			return fmt.Errorf("session %s %s: %s", id, sess.Status, sess.Error)
		}
		if !sess.Result.KBound {
			return fmt.Errorf("session %s violated the k-bound: %d distinct > MinK %d",
				id, len(sess.Result.Distinct), sess.Result.MinK)
		}
		if !sess.Result.AllDecided {
			return fmt.Errorf("session %s left processes undecided", id)
		}
		roundsTotal += sess.Result.Rounds
	}
	elapsed := time.Since(start)

	metrics, err := scrapeMetrics(addr)
	if err != nil {
		return err
	}
	completed := metrics["ksetd_sessions_completed_total"]
	if completed < total {
		return fmt.Errorf("metrics report %d completed sessions, want >= %d", completed, total)
	}
	if metrics["ksetd_rounds_total"] == 0 {
		return fmt.Errorf("metrics report zero rounds executed")
	}
	if v := metrics["ksetd_kbound_violations_total"]; v != 0 {
		return fmt.Errorf("metrics report %d k-bound violations", v)
	}

	sum := serviceSummary{
		Sessions:       total,
		Seconds:        elapsed.Seconds(),
		SessionsPerSec: float64(total) / elapsed.Seconds(),
		RoundsTotal:    roundsTotal,
		Completed:      completed,
	}
	if asJSON {
		return json.NewEncoder(stdout).Encode(sum)
	}
	fmt.Fprintf(stdout, "service smoke PASS: %d sessions in %.2fs (%.1f sessions/sec, %d rounds); all decisions within the k-bound\n",
		sum.Sessions, sum.Seconds, sum.SessionsPerSec, sum.RoundsTotal)
	return nil
}

func waitHealthy(addr string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := http.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service at %s not healthy after %v (last error: %v)", addr, wait, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func submitBatch(addr string, specs []service.SessionSpec) ([]string, error) {
	body, err := json.Marshal(service.BatchRequest{Sessions: specs})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(addr+"/v1/sessions", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var br service.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return nil, err
	}
	var ids []string
	for i, r := range br.Results {
		if r.Error != "" {
			return nil, fmt.Errorf("submit: spec %d rejected: %s", i, r.Error)
		}
		ids = append(ids, r.ID)
	}
	return ids, nil
}

func pollDone(addr, id string, deadline time.Time) (service.Session, error) {
	for {
		resp, err := http.Get(addr + "/v1/sessions/" + id)
		if err != nil {
			return service.Session{}, err
		}
		var sess service.Session
		err = json.NewDecoder(resp.Body).Decode(&sess)
		resp.Body.Close()
		if err != nil {
			return service.Session{}, err
		}
		if sess.Status == "done" || sess.Status == "failed" {
			return sess, nil
		}
		if time.Now().After(deadline) {
			return sess, fmt.Errorf("session %s still %s at deadline", id, sess.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

var metricLine = regexp.MustCompile(`(?m)^(ksetd_[a-z_]+) (\d+)$`)

func scrapeMetrics(addr string) (map[string]int, error) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	for _, m := range metricLine.FindAllStringSubmatch(string(raw), -1) {
		v, err := strconv.Atoi(m[2])
		if err != nil {
			return nil, fmt.Errorf("metric %s: %v", m[1], err)
		}
		out[m[1]] = v
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no ksetd_ metrics in scrape")
	}
	return out, nil
}

// runtimeSummary is the -json output of runtime mode.
type runtimeSummary struct {
	Transport    string  `json:"transport"`
	N            int     `json:"n"`
	Nodes        int     `json:"nodes,omitempty"`
	Rounds       int     `json:"rounds"`
	Trials       int     `json:"trials"`
	Seconds      float64 `json:"seconds_median"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
}

// runtimeParams bundles the runtime-mode flags.
type runtimeParams struct {
	transport  string
	n          int
	rounds     int
	trials     int
	nodes      int
	loss       float64
	lossModel  string
	burst, gap float64
	seed       int64
	floor      float64
	cpuprofile string
	asJSON     bool
}

func runRuntime(stdout io.Writer, p runtimeParams) error {
	if p.n < 1 || p.rounds < 1 || p.trials < 1 {
		return fmt.Errorf("need positive -n, -rounds, -trials")
	}
	if p.nodes != 0 && p.transport != "tcp" && p.transport != "udp" {
		return fmt.Errorf("-nodes only applies to -transport tcp or udp")
	}
	if p.loss != 0 && p.transport != "udp" {
		return fmt.Errorf("-loss only applies to -transport udp")
	}
	switch p.lossModel {
	case "", "iid":
	case "ge":
		if p.transport != "udp" {
			return fmt.Errorf("-loss-model ge only applies to -transport udp")
		}
		if p.loss != 0 {
			return fmt.Errorf("-loss-model ge sets its own rate (burst/(burst+gap)); drop -loss")
		}
	default:
		return fmt.Errorf("unknown -loss-model %q (want iid or ge)", p.lossModel)
	}
	if p.cpuprofile != "" {
		f, err := os.Create(p.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	var secs []float64
	for trial := 0; trial < p.trials; trial++ {
		rng := rand.New(rand.NewSource(p.seed + int64(trial)))
		spec := sim.Spec{
			Adversary:       adversary.RandomSingleSource(p.n, 0, 0.2, 0, rng),
			Proposals:       sim.SeqProposals(p.n),
			MaxRounds:       p.rounds,
			RunToCompletion: true,
		}
		switch p.transport {
		case "sim":
			// Lockstep reference: no Runner override.
		case "inproc":
			spec.Runner = runtime.NewRunner(runtime.RunnerOpts{})
		case "tcp":
			spec.Runner = runtime.NewRunner(runtime.RunnerOpts{Kind: "tcp", Nodes: p.nodes})
		case "udp":
			ropts := runtime.RunnerOpts{
				Kind: "udp", Nodes: p.nodes, Loss: p.loss, LossSeed: p.seed,
			}
			if p.lossModel == "ge" {
				// Bursty loss: the Gilbert-Elliott walk drops whole
				// per-link frame runs instead of i.i.d. singles.
				drop, err := ktransport.GEFrameLoss(p.burst, p.gap, p.seed)
				if err != nil {
					return err
				}
				ropts.UDP.DropDatagram = drop
			}
			spec.Runner = runtime.NewRunner(ropts)
		default:
			return fmt.Errorf("unknown transport %q (want inproc, tcp, udp, or sim)", p.transport)
		}
		start := time.Now()
		if _, err := sim.Execute(spec); err != nil {
			return err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	sort.Float64s(secs)
	med := secs[len(secs)/2]
	sum := runtimeSummary{
		Transport:    p.transport,
		N:            p.n,
		Nodes:        p.nodes,
		Rounds:       p.rounds,
		Trials:       p.trials,
		Seconds:      med,
		RoundsPerSec: float64(p.rounds) / med,
	}
	if p.asJSON {
		if err := json.NewEncoder(stdout).Encode(sum); err != nil {
			return err
		}
	} else {
		label := sum.Transport
		if sum.Nodes > 0 {
			label = fmt.Sprintf("%s/nodes=%d", sum.Transport, sum.Nodes)
		}
		fmt.Fprintf(stdout, "runtime %s: n=%d rounds=%d median %.3fs (%.0f rounds/sec)\n",
			label, sum.N, sum.Rounds, sum.Seconds, sum.RoundsPerSec)
	}
	if p.floor > 0 && sum.RoundsPerSec < p.floor {
		return fmt.Errorf("throughput %.0f rounds/sec below floor %.0f", sum.RoundsPerSec, p.floor)
	}
	return nil
}

// chaosRow is one crash count's measurement in the -mode chaos sweep.
type chaosRow struct {
	Crashes      int     `json:"crashes"`
	Rounds       int     `json:"rounds"`
	Seconds      float64 `json:"seconds_median"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	LostLinks    int     `json:"lost_links"`
	Distinct     int     `json:"distinct"`
	MinK         int     `json:"min_k"`
}

// chaosSummary is the -json output of chaos mode.
type chaosSummary struct {
	Transport string     `json:"transport"`
	N         int        `json:"n"`
	Trials    int        `json:"trials"`
	MinFrac   float64    `json:"min_frac,omitempty"`
	Rows      []chaosRow `json:"rows"`
}

// chaosParams bundles the chaos-mode flags.
type chaosParams struct {
	transport string
	n         int
	crashes   int
	trials    int
	seed      int64
	minFrac   float64
	asJSON    bool
}

// runChaos measures graceful degradation under real process crashes:
// for each crash count 0..crashes it runs `trials` seeded chaos
// scenarios over the chosen transport, requires every live run to
// verify bit-for-bit against its lockstep replay (internal/chaos), and
// reports the median round throughput per row. -min-frac turns the
// degradation curve into a pass/fail check against the 0-crash row.
func runChaos(stdout io.Writer, p chaosParams) error {
	if p.n < 2 || p.trials < 1 {
		return fmt.Errorf("need -n >= 2 and positive -trials")
	}
	if p.crashes < 0 || p.crashes >= p.n {
		return fmt.Errorf("-crashes %d out of range [0,%d] (the harness needs a survivor)", p.crashes, p.n-1)
	}
	switch p.transport {
	case "inproc", "tcp", "udp":
	default:
		return fmt.Errorf("unknown transport %q (chaos mode runs inproc, tcp, or udp)", p.transport)
	}
	sum := chaosSummary{Transport: p.transport, N: p.n, Trials: p.trials, MinFrac: p.minFrac}
	for c := 0; c <= p.crashes; c++ {
		var secs []float64
		var last *runtime.ReplayReport
		rounds := 0
		lost := 0
		for trial := 0; trial < p.trials; trial++ {
			cfg := chaos.BatteryConfig{
				Name:    fmt.Sprintf("%s-n%d-c%d-t%d", p.transport, p.n, c, trial),
				Kind:    p.transport,
				N:       p.n,
				Crashes: c,
				Seed:    p.seed + int64(trial),
			}
			start := time.Now()
			rep, err := chaos.Run(cfg, "")
			if err != nil {
				return fmt.Errorf("chaos %s: replay verification failed: %w", cfg.Name, err)
			}
			if !rep.KBound {
				return fmt.Errorf("chaos %s: %d distinct decisions exceed realized MinK %d",
					cfg.Name, rep.Distinct, rep.Replay.MinK)
			}
			secs = append(secs, time.Since(start).Seconds())
			rounds += rep.Live.Rounds
			lost += rep.LostLinks
			last = rep
		}
		sort.Float64s(secs)
		med := secs[len(secs)/2]
		row := chaosRow{
			Crashes:      c,
			Rounds:       rounds / p.trials,
			Seconds:      med,
			RoundsPerSec: float64(rounds/p.trials) / med,
			LostLinks:    lost,
			Distinct:     last.Distinct,
			MinK:         last.Replay.MinK,
		}
		sum.Rows = append(sum.Rows, row)
		if !p.asJSON {
			fmt.Fprintf(stdout, "chaos %s: n=%d crashes=%d median %.3fs (%d rounds, %.0f rounds/sec, %d lost links) replay OK\n",
				p.transport, p.n, c, row.Seconds, row.Rounds, row.RoundsPerSec, row.LostLinks)
		}
	}
	if p.asJSON {
		if err := json.NewEncoder(stdout).Encode(sum); err != nil {
			return err
		}
	}
	if p.minFrac > 0 {
		base := sum.Rows[0].RoundsPerSec
		for _, row := range sum.Rows[1:] {
			if row.RoundsPerSec < p.minFrac*base {
				return fmt.Errorf("chaos: %d-crash throughput %.0f rounds/sec below %.0f%% of the 0-crash %.0f",
					row.Crashes, row.RoundsPerSec, 100*p.minFrac, base)
			}
		}
		if !p.asJSON {
			fmt.Fprintf(stdout, "chaos degradation PASS: every crashed row sustains >= %.0f%% of %.0f rounds/sec\n",
				100*p.minFrac, sum.Rows[0].RoundsPerSec)
		}
	}
	return nil
}
