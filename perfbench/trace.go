package main

import "strings"

// Span names. The text before the first dot is the layer the call goes
// into; "bench" spans are the benchmark's own phases.
const (
	spPass = iota
	spSetup
	spRun
	spGate
	spDesRun
	spWorkloadSchedule
	spWorkloadRecord
	spWorkloadOpen
	spPipelineNew
	spPipelineOffer
	spPipelineInject
	spCoreNew
	spCoreTryAdmit
	spClusterNew
	spClusterRoute
	spClusterRelease
	numSpans
)

var spanNames = [numSpans]string{
	spPass:             "bench.pass",
	spSetup:            "bench.setup",
	spRun:              "bench.run",
	spGate:             "bench.gate",
	spDesRun:           "des.Simulator.Run",
	spWorkloadSchedule: "workload.TSCE.Schedule",
	spWorkloadRecord:   "workload.Scenario.RecordTrace",
	spWorkloadOpen:     "workload.OpenTrace",
	spPipelineNew:      "pipeline.New",
	spPipelineOffer:    "pipeline.Pipeline.Offer",
	spPipelineInject:   "pipeline.Pipeline.Inject",
	spCoreNew:          "core.NewController",
	spCoreTryAdmit:     "core.Controller.TryAdmit",
	spClusterNew:       "cluster.New",
	spClusterRoute:     "cluster.Cluster.Route",
	spClusterRelease:   "cluster.Replica.Release",
}

func spanLayer(name int) string {
	s := spanNames[name]
	return s[:strings.IndexByte(s, '.')]
}

// maxKeptSpans bounds the spans kept for the trace file; every span,
// kept or not, is folded into the per-name totals.
const maxKeptSpans = 1 << 16

// span is one timed call: times are ns since process start, parent is
// the index of the enclosing kept span or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spanTotal aggregates every span of one name. Self time is the span's
// duration minus the time its child spans cover.
type spanTotal struct {
	count   uint64
	totalNs int64
	selfNs  int64
}

type openSpan struct {
	name    int
	start   int64
	childNs int64
	kept    int
}

// tracer records spans around the calls the benchmark makes into each
// layer. It is used from one goroutine.
type tracer struct {
	kept   []span
	totals [numSpans]*spanTotal
	stack  []openSpan
}

func newTracer() *tracer {
	t := &tracer{kept: make([]span, 0, maxKeptSpans)}
	for i := range t.totals {
		t.totals[i] = &spanTotal{}
	}
	return t
}

func (t *tracer) parent() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1].kept
}

func (t *tracer) keep(name int, start, end int64) int {
	if len(t.kept) == cap(t.kept) {
		return -1
	}
	t.kept = append(t.kept, span{Name: spanNames[name], Start: start, End: end, Parent: t.parent()})
	return len(t.kept) - 1
}

// begin opens a span that may have children.
func (t *tracer) begin(name int) {
	start := now()
	k := t.keep(name, start, 0)
	t.stack = append(t.stack, openSpan{name: name, start: start, kept: k})
}

// end closes the innermost open span.
func (t *tracer) end() {
	end := now()
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	if o.kept >= 0 {
		t.kept[o.kept].End = end
	}
	dur := end - o.start
	tot := t.totals[o.name]
	tot.count++
	tot.totalNs += dur
	tot.selfNs += dur - o.childNs
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].childNs += dur
	}
}

// leaf records a call with no child spans, timed by the caller.
func (t *tracer) leaf(name int, start, end int64) {
	t.keep(name, start, end)
	dur := end - start
	tot := t.totals[name]
	tot.count++
	tot.totalNs += dur
	tot.selfNs += dur
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].childNs += dur
	}
}

// meanNs is the mean duration of the spans of one name.
func (t *tracer) meanNs(name int) float64 {
	tot := t.totals[name]
	if tot.count == 0 {
		return 0
	}
	return float64(tot.totalNs) / float64(tot.count)
}

// layerSelf sums span self time by layer, in seconds.
func (t *tracer) layerSelf() map[string]float64 {
	out := map[string]float64{}
	for name, tot := range t.totals {
		out[spanLayer(name)] += float64(tot.selfNs) / 1e9
	}
	return out
}
