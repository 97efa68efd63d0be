// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed time, checks every output it produces, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// breakdown of a traced run) as one JSON object on its last line.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload service-mix --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, metrics and the
// held-out seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	name string
	unit string
}

// endToEnd are the untraced metrics, reported on every workload. Each
// workload maps its own unit of work onto them (README.md): a session,
// a sweep run, or a fixed-length socket run; latency is per session,
// per sweep run, or per round. The p95 and p99 are printed in the
// report lines; the gated tail is the p90, because on a shared two-CPU
// host the higher percentiles move by more than any useful bound
// between runs of the same code.
var endToEnd = []metric{
	{"runs_per_sec", "runs/s"},
	{"rounds_per_sec", "rounds/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the traced metrics: self times per workload unit
// (session, run or round), call counts and ratios, reported on every
// workload; a layer the workload does not exercise reads 0.
var perLayer = []metric{
	{"service.admit_us", "us"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.queue_wait_p99_ms", "ms"},
	{"service.exec_ms", "ms"},
	{"adversary.build_us", "us"},
	{"adversary.materialize_us", "us"},
	{"adversary.graph_us", "us"},
	{"adversary.graph_calls", "count"},
	{"algo.send_us", "us"},
	{"algo.transition_us", "us"},
	{"algo.transition_calls", "count"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.decode_calls", "count"},
	{"wire.decodes_per_delivery", "ratio"},
	{"transport.broadcast_us", "us"},
	{"transport.gather_wait_us", "us"},
	{"transport.gather_wait_p50_us", "us"},
	{"transport.gather_wait_p99_us", "us"},
	{"transport.stalls_per_round", "count"},
	{"transport.lost_links_per_round", "count"},
	{"runtime.setup_us", "us"},
	{"runtime.barrier_us", "us"},
	{"rounds.executor_us", "us"},
	{"sim.verify_us", "us"},
	{"sim.check_us", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.ledger_max_err_pct", "%"},
	{"trace.units", "count"},
}

// report is what a workload run produces.
type report struct {
	attempted int
	failed    int
	// values holds every metric by name; the JSON line carries the set
	// the mode asks for.
	values map[string]float64
	// lines are the human-readable report: the workload's own metric
	// names (sessions_per_sec, round_p99_us, ...) with units and sample
	// counts, the input digest, and every failed check.
	lines []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail records a failed check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 20 {
		r.printf("FAIL "+format, args...)
	}
}

// params are the command-line inputs a workload sees.
type params struct {
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
	// small shrinks input pools and run lengths for the self-tests.
	small bool
	// breakCheck forces one check to fail (self-test of failure
	// accounting).
	breakCheck bool
}

var workloads = map[string]func(p params) (*report, error){
	"service-mix": runServiceMix,
	"sim-sweep":   runSimSweep,
	"tcp-mesh":    func(p params) (*report, error) { return runMesh(p, "tcp") },
	"udp-loss":    func(p params) (*report, error) { return runMesh(p, "udp") },
}

// notGated names the workloads that run by hand but are left out of
// BENCHMARK.json, with the reason. udp-loss: a UDP node whose writer
// goroutine is held off the CPU for about four round deadlines (~15 ms)
// fails the run with "overran the writer window" instead of losing the
// late frames, so on a loaded host an occasional run errors out
// (README.md, "Known limits").
var notGated = map[string]string{
	"udp-loss": "the UDP writer-window overrun fails runs on a loaded host",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: service-mix, sim-sweep, tcp-mesh or udp-loss")
	seed := fs.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	spans := fs.String("spans-dir", "", "directory for the traced run's span file (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (service-mix|sim-sweep|tcp-mesh|udp-loss), -seconds > 0, -trace 0|1\n")
		return 2
	}
	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1, spansDir: *spans}
	rep, err := wl(p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.values["max_rss_mb"] = maxRSSMiB()
	rep.printf("failed_frac %.4f (%d of %d operations)", failedFrac(rep), rep.failed, rep.attempted)
	rep.printf("max_rss_mb %.1f MiB", rep.values["max_rss_mb"])
	for _, l := range rep.lines {
		fmt.Fprintf(stdout, "# %s %s\n", *name, l)
		if strings.HasPrefix(l, "FAIL ") {
			fmt.Fprintf(stderr, "perfbench: %s: %s\n", *name, l)
		}
	}
	set := endToEnd
	if p.trace {
		set = perLayer
	}
	if err := writeResult(stdout, rep, set); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rep.failed > 0 || rep.attempted == 0 {
		return 1
	}
	return 0
}

func failedFrac(r *report) float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// writeResult prints the result line; a metric of the set the workload
// did not produce is an error, never a silent zero.
func writeResult(w io.Writer, rep *report, set []metric) error {
	out := jsonResult{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range set {
		v, ok := rep.values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not produced", m.name)
		}
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// maxRSSMiB is the process's peak resident set (getrusage maxrss, KiB
// on Linux).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile returns the q-quantile of xs (nearest rank on a sorted
// copy); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median returns the median of xs (the mean of the middle two for an
// even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// setupReps is how many times a workload repeats its set-up (input
// generation, and service-mix's service start). Each repetition starts
// after a full garbage collection, and setup_s takes the median, so a
// sub-millisecond set-up is not moved by a collection that happens to
// fall inside it.
const setupReps = 11

// deadline returns the end of a measured window of the given seconds.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// rateWindows is how many windows throughput is measured in: one per
// two seconds of measurement.
func rateWindows(seconds float64) int { return max(int(seconds/2), 1) }

// windows returns how many windows a run with the given number of
// latency samples is split into: at most 20, averaging at least 1000
// samples each, so a window's p99 has about ten samples beyond it.
func windows(samples int) int { return min(max(samples/1000, 1), 20) }

// windowed splits the events at times ts (ns, ascending) into k windows
// of equal duration spanning [t0, t1) and calls f with each window's
// index range and width in seconds. Rates and percentiles are reported
// as the median over windows, so a burst of interference from outside
// the program moves one window rather than the result.
func windowed(ts []int64, t0, t1 int64, k int, f func(lo, hi int, width float64)) {
	width := float64(t1-t0) / float64(k)
	lo := 0
	for w := 0; w < k; w++ {
		end := t0 + int64(float64(w+1)*width)
		hi := lo
		for hi < len(ts) && (ts[hi] < end || w == k-1) {
			hi++
		}
		f(lo, hi, width/1e9)
		lo = hi
	}
}

// latency is a latency summary: medians over windows of each window's
// percentiles.
type latency struct {
	p50, p90, p95, p99 float64
	windows            int
}

// latencyWindows summarizes the samples xs observed at times ts
// (ascending).
func latencyWindows(ts []int64, xs []float64) latency {
	if len(ts) == 0 {
		return latency{}
	}
	k := windows(len(xs))
	var a, b, c, d []float64
	windowed(ts, ts[0], ts[len(ts)-1], k, func(lo, hi int, _ float64) {
		a = append(a, quantile(xs[lo:hi], 0.5))
		b = append(b, quantile(xs[lo:hi], 0.9))
		c = append(c, quantile(xs[lo:hi], 0.95))
		d = append(d, quantile(xs[lo:hi], 0.99))
	})
	return latency{p50: median(a), p90: median(b), p95: median(c), p99: median(d), windows: k}
}
