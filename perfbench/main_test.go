package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tiny runs a workload at the self-test size.
func tiny(t *testing.T, name string, trace, breakCheck bool) *report {
	t.Helper()
	rep, err := workloads[name](params{seed: 7, seconds: 0.2, trace: trace, small: true, breakCheck: breakCheck})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

func lastLine(t *testing.T, rep *report, set []metric) jsonResult {
	t.Helper()
	rep.values["max_rss_mb"] = maxRSSMiB()
	var buf bytes.Buffer
	if err := writeResult(&buf, rep, set); err != nil {
		t.Fatal(err)
	}
	var got jsonResult
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("result line %q: %v", buf.String(), err)
	}
	return got
}

// TestEveryMetricEmitted runs each workload untraced and traced and
// checks that every named metric is printed with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			set := endToEnd
			if trace {
				set = perLayer
			}
			rep := tiny(t, name, trace, false)
			got := lastLine(t, rep, set)
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, trace, got.Correct, got.Attempted, got.Failed, strings.Join(rep.lines, "\n"))
			}
			if len(got.Metrics) != len(set) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(got.Metrics), len(set))
			}
			for _, m := range set {
				v, ok := got.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.name, v, m.unit)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, v.Value)
				}
			}
		}
	}
}

// TestForcedFailureRaisesFailedFrac corrupts one output per workload
// and checks that the run reports it as failed.
func TestForcedFailureRaisesFailedFrac(t *testing.T) {
	for name := range workloads {
		rep := tiny(t, name, false, true)
		got := lastLine(t, rep, endToEnd)
		if got.Correct || got.Failed == 0 || failedFrac(rep) <= 0 {
			t.Errorf("%s: a corrupted output was not caught: correct=%v failed=%d", name, got.Correct, got.Failed)
		}
	}
}

// TestBenchmarkDefinition checks BENCHMARK.json against the metrics and
// workloads the program reports.
func TestBenchmarkDefinition(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads)-len(notGated) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program gates %d", len(def.Workloads), len(workloads)-len(notGated))
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		if notGated[w.Name] != "" {
			t.Errorf("BENCHMARK.json lists %q, which is not gated: %s", w.Name, notGated[w.Name])
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
}

// TestLedgerSelfTimes pins the self-time arithmetic on a hand-built
// unit: sequential children subtract in full, n parallel lanes subtract
// their mean.
func TestLedgerSelfTimes(t *testing.T) {
	u := &unit{root: lUnit, dur: 1000}
	u.add(lSimExecute, lUnit, 1, 1, 900)
	u.add(lRuntimeRun, lSimExecute, 1, 1, 800)
	u.add(lAlgoTransition, lRuntimeRun, 4, 40, 1200) // 4 lanes: covers 300
	self := u.selfTimes()
	want := map[layer]float64{lUnit: 100, lSimExecute: 100, lRuntimeRun: 500, lAlgoTransition: 300}
	for l, w := range want {
		if self[l] != w {
			t.Errorf("self[%s] = %v, want %v", layerNames[l], self[l], w)
		}
	}
	if gap := u.ledgerGap(); gap != 100 {
		t.Errorf("gap = %v, want the root's unattributed 100", gap)
	}
	u.add(lAlgoSend, lRuntimeRun, 1, 1, 700) // children now exceed their parent
	if gap := u.ledgerGap(); gap != 100+200 {
		t.Errorf("gap = %v, want 300 with 200 double-counted", gap)
	}
}
