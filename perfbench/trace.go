package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// layer names one traced span kind. Spans are recorded by the
// benchmark's own wrappers around the public entry points of each
// module (wrap.go); nothing inside the program is instrumented.
type layer uint8

const (
	lUnit               layer = iota // root: one session, run or round
	lServiceAdmit                    // service.Submit call
	lServiceQueue                    // submitted -> first polled as running
	lServiceExec                     // running -> polled as done
	lAdvBuild                        // adversary constructor
	lAdvMaterialize                  // adversary.MaterializeRun
	lAdvGraph                        // Adversary.Graph(r) on a generator
	lSimExecute                      // sim.Execute; its self time is sim.verify
	lSimCheck                        // Outcome.CheckAlgorithm + Lemma 11
	lRoundsExecutor                  // rounds.RunSequential
	lRuntimeSetup                    // runner start -> transport built
	lRuntimeRun                      // runtime.Run; its self time is the barrier
	lRounds                          // a run's rounds, broken down in their own units
	lAlgoSend                        // Algorithm.Send
	lAlgoTransition                  // Algorithm.Transition
	lWireEncode                      // Codec.Encode
	lWireDecode                      // Decoder.Decode
	lTransportBroadcast              // Endpoint.Broadcast
	lTransportGather                 // Endpoint.Gather
	numLayers
)

var layerNames = [numLayers]string{
	"unit", "service.admit", "service.queue_wait", "service.exec",
	"adversary.build", "adversary.materialize", "adversary.graph",
	"sim.verify", "sim.check", "rounds.executor", "runtime.setup", "runtime.barrier", "runtime.rounds",
	"algo.send", "algo.transition", "wire.encode", "wire.decode",
	"transport.broadcast", "transport.gather_wait",
}

// clock is the benchmark's monotonic time base.
var clock = time.Now()

// now returns nanoseconds since clock.
func now() int64 { return int64(time.Since(clock)) }

// agg is one span of a unit, or several calls of the same layer under
// the same parent folded together (leaf layers such as Transition run
// thousands of times per unit; keeping each call would not fit in
// memory). lanes > 1 marks spans recorded on parallel process
// goroutines: the parent covers total/lanes of its interval, the mean
// process's share.
type agg struct {
	used   bool
	parent layer
	lanes  int64
	calls  int64
	total  int64 // ns, summed over folded calls
}

// unit is the span tree of one unit of work: its root duration and
// every layer recorded under it. Within one workload each layer has a
// single parent, so the tree is indexed by layer.
type unit struct {
	kind  string // "session", "run", "round"
	id    int
	root  layer // lUnit, or lRuntimeRun for a round (its self time is the barrier)
	dur   int64
	spans [numLayers]agg
}

// add folds one call of l (parent p) into the unit.
func (u *unit) add(l, p layer, lanes, calls, total int64) {
	a := &u.spans[l]
	a.used, a.parent, a.lanes = true, p, lanes
	a.calls += calls
	a.total += total
}

// selfTimes returns every layer's self time in the unit: its covered
// duration minus what its children cover. The root's entry holds the
// unit time no layer accounts for.
func (u *unit) selfTimes() [numLayers]float64 {
	var self [numLayers]float64
	cover := func(a agg) float64 {
		if a.lanes > 1 {
			return float64(a.total) / float64(a.lanes)
		}
		return float64(a.total)
	}
	self[u.root] += float64(u.dur)
	for l := range u.spans {
		a := u.spans[l]
		if !a.used || layer(l) == u.root {
			continue
		}
		self[l] += cover(a)
		self[a.parent] -= cover(a)
	}
	return self
}

// ledgerTolerance is the share of the traced time by which self times
// may fail to add up (ROADMAP aim 1: phase totals within 5% of measured
// wall time).
const ledgerTolerance = 0.05

// ledgerGap returns the unit time its self times do not account for:
// every negative self time (children covering more than their parent,
// i.e. double counting) plus, for a root that is not itself a layer,
// the time no layer covers.
func (u *unit) ledgerGap() float64 {
	gap := 0.0
	for l, s := range u.selfTimes() {
		switch {
		case s < 0:
			gap -= s
		case layer(l) == lUnit && u.root == lUnit:
			gap += s
		}
	}
	return gap
}

// seqTrace records the spans of one unit executed on a single goroutine:
// open/close bracket nested calls, leaf folds a call into the innermost
// open span.
type seqTrace struct {
	u      *unit
	stack  []layer
	starts []int64
}

func newSeqTrace(kind string, id int) *seqTrace {
	return &seqTrace{u: &unit{kind: kind, id: id, root: lUnit}, stack: []layer{lUnit}, starts: []int64{now()}}
}

func (t *seqTrace) top() layer { return t.stack[len(t.stack)-1] }

func (t *seqTrace) open(l layer) {
	t.stack = append(t.stack, l)
	t.starts = append(t.starts, now())
}

func (t *seqTrace) close() {
	i := len(t.stack) - 1
	l, d := t.stack[i], now()-t.starts[i]
	t.stack, t.starts = t.stack[:i], t.starts[:i]
	t.u.add(l, t.top(), 1, 1, d)
}

// leaf implements sink.
func (t *seqTrace) leaf(l layer, start int64) { t.u.add(l, t.top(), 1, 1, now()-start) }

// finish closes the root and returns the unit.
func (t *seqTrace) finish() *unit {
	t.u.dur = now() - t.starts[0]
	return t.u
}

// sink receives timed leaf calls from the wrappers.
type sink interface {
	leaf(l layer, start int64)
}

// row accumulates the leaf calls of all process goroutines of one round
// (or of a whole run) with atomics.
type row struct {
	ns         [numLayers]atomic.Int64
	calls      [numLayers]atomic.Int64
	deliveries atomic.Int64 // non-nil payloads returned by Gather
}

// meshRec collects the concurrent leaf calls of one runtime.Run. With
// perRound, calls land in the row of the round the controller has open:
// the runtime's barrier guarantees a process's calls between two
// Observer.OnRound calls all belong to that interval (a pipelined
// round-r+1 send happens before the process reports round r).
type meshRec struct {
	n        int
	perRound bool
	closed   atomic.Int64 // OnRound calls so far
	rows     []row
	bounds   []int64   // bounds[0] = runtime.Run start, bounds[r] = OnRound(r)
	gathers  [][]int64 // per process: every Gather's duration
}

func newMeshRec(n, maxRounds int, perRound bool) *meshRec {
	rows := 1
	if perRound {
		rows = maxRounds
	}
	return &meshRec{n: n, perRound: perRound, rows: make([]row, rows), gathers: make([][]int64, n)}
}

func (m *meshRec) row() *row {
	if m.perRound {
		return &m.rows[m.closed.Load()]
	}
	return &m.rows[0]
}

// leaf implements sink.
func (m *meshRec) leaf(l layer, start int64) {
	r := m.row()
	r.ns[l].Add(now() - start)
	r.calls[l].Add(1)
}

// onRound marks the end of a round; called on the runtime controller.
func (m *meshRec) onRound() {
	m.bounds = append(m.bounds, now())
	m.closed.Add(1)
}

// fold adds row r's leaf layers to u as n parallel lanes under parent.
func (m *meshRec) fold(u *unit, r int, parent layer) {
	rw := &m.rows[r]
	for l := range rw.ns {
		if c := rw.calls[l].Load(); c > 0 {
			u.add(layer(l), parent, int64(m.n), c, rw.ns[l].Load())
		}
	}
}

// spanWriter writes finished units to a tab-separated span file, one
// line per (unit, layer): kind, id, layer, parent, lanes, calls, ns.
type spanWriter struct {
	f *os.File
	w *bufio.Writer
}

func newSpanWriter(dir, name string) (*spanWriter, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind\tid\tlayer\tparent\tlanes\tcalls\tns")
	return &spanWriter{f: f, w: w}, nil
}

func (s *spanWriter) write(u *unit) {
	if s == nil {
		return
	}
	fmt.Fprintf(s.w, "%s\t%d\t%s\t-\t1\t1\t%d\n", u.kind, u.id, layerNames[u.root], u.dur)
	for l, a := range u.spans {
		if a.used && layer(l) != u.root {
			fmt.Fprintf(s.w, "%s\t%d\t%s\t%s\t%d\t%d\t%d\n", u.kind, u.id, layerNames[l], layerNames[a.parent], a.lanes, a.calls, a.total)
		}
	}
}

func (s *spanWriter) close() error {
	if s == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// ledger sums self times per layer over the units of one kind and
// measures how well they add up to the units' spans.
type ledger struct {
	units int
	self  [numLayers]float64 // ns
	calls [numLayers]int64
	dur   float64 // ns, summed unit spans
	gap   float64 // ns, summed ledger gaps
	worst float64 // largest single-unit gap share
	over  int     // units whose own gap exceeds ledgerTolerance
}

func (g *ledger) add(u *unit) {
	g.units++
	self := u.selfTimes()
	for l := range self {
		g.self[l] += self[l]
		g.calls[l] += u.spans[l].calls
	}
	gap := u.ledgerGap()
	g.dur += float64(u.dur)
	g.gap += gap
	if u.dur > 0 {
		g.worst = max(g.worst, gap/float64(u.dur))
		if gap > ledgerTolerance*float64(u.dur) {
			g.over++
		}
	}
}

// gapShare is the share of all traced unit time the self times miss.
func (g *ledger) gapShare() float64 {
	if g.dur == 0 {
		return 0
	}
	return g.gap / g.dur
}

// perUnitUs returns layer l's self time in µs per unit.
func (g *ledger) perUnitUs(l layer) float64 {
	if g.units == 0 {
		return 0
	}
	return g.self[l] / float64(g.units) / 1e3
}

// callsPerUnit returns layer l's calls per unit.
func (g *ledger) callsPerUnit(l layer) float64 {
	if g.units == 0 {
		return 0
	}
	return float64(g.calls[l]) / float64(g.units)
}

// merge adds other's self times and calls to g without adding units:
// the layers of other's units are spread over g's units.
func (g *ledger) merge(other *ledger) {
	for l := range g.self {
		g.self[l] += other.self[l]
		g.calls[l] += other.calls[l]
	}
}
