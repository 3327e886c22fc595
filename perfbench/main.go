// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time from a single goroutine, checks the
// workload's outputs, and prints its metrics; the last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics. With --trace 0 the metrics are the end-to-end ones of
// BENCHMARK.json; with --trace 1 they are the per-layer ones, measured
// with spans around every call the benchmark makes and a CPU profile.
//
// Run it from the repository root with perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload tsce-hold --seed 1 --seconds 40 --trace 0
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

// Seeds whose exact outputs golden.json records. defaultSeed is the one
// the benchmark was written and tuned on; heldOutSeed only confirms that
// every gate and exact count holds on a seed it was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 97
)

//go:embed golden.json
var goldenJSON []byte

// passResult is what one set-up and run of a workload produced.
type passResult struct {
	offered  uint64
	admitted uint64
	missed   uint64
	genS     float64 // time spent in workload-generation calls during set-up
	failures []string
	// fingerprint holds every simulated or decided count of the pass
	// exactly; it must be identical on every pass and run of a seed.
	fingerprint string
	counters    map[string]float64
}

func (r *passResult) fail(msg string) { r.failures = append(r.failures, msg) }

type passRunner interface {
	run(m *meter) passResult
}

type benchWorkload interface {
	setup(seed int64, m *meter) (passRunner, error)
}

var workloads = []struct {
	name string
	make func(toy bool) benchWorkload
}{
	{"tsce-hold", func(toy bool) benchWorkload { return newTSCEHold(toy) }},
	{"replay-diurnal", func(toy bool) benchWorkload { return newReplayDiurnal(toy) }},
	{"serve-p2c", func(toy bool) benchWorkload { return newServeP2C(toy) }},
}

// callStat accumulates the durations of one kind of timed call.
type callStat struct {
	n  uint64
	ns int64
}

func (c callStat) mean() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.n)
}

// meter times the benchmark's admission calls and, when tracing, records
// spans. The histograms pool every pass the meter timed.
type meter struct {
	tr     *tracer // nil when tracing is off
	admit  hist
	reject hist
	all    hist
	calls  [numSpans][2]callStat // by span name and outcome (1 = admitted)
}

// decision records one timed admission call.
func (m *meter) decision(name int, start, end int64, ok bool) {
	d := end - start
	o := 0
	if ok {
		o = 1
		m.admit.add(d)
	} else {
		m.reject.add(d)
	}
	m.all.add(d)
	m.calls[name][o].n++
	m.calls[name][o].ns += d
	if m.tr != nil {
		m.tr.leaf(name, start, end)
	}
}

func (m *meter) begin(name int) {
	if m.tr != nil {
		m.tr.begin(name)
	}
}

func (m *meter) end() {
	if m.tr != nil {
		m.tr.end()
	}
}

// call runs fn, as a span when tracing.
func (m *meter) call(name int, fn func()) {
	if m.tr == nil {
		fn()
		return
	}
	s := now()
	fn()
	m.tr.leaf(name, s, now())
}

// series is every pass of one measured stretch.
type series struct {
	setupS   []float64 // process CPU time of each set-up
	runS     []float64 // process CPU time of each run
	allocs   []float64 // heap allocations per offered task, per pass
	results  []passResult
	heapPeak uint64
}

func (s *series) tasksPerS() []float64 {
	out := make([]float64, len(s.results))
	for i, r := range s.results {
		out[i] = float64(r.offered) / s.runS[i]
	}
	return out
}

// throughput is the median over all passes of tasks per CPU second. The
// host's vCPUs are shared: the hypervisor can run other guests on them
// for a fifth of the time for minutes, which stretches a pass on the wall
// clock but not in CPU time, so set-up and runs are timed in process CPU
// time. Other tenants also slow identical passes by up to 2x for seconds
// at a time, so every timing is taken over the whole run rather than from
// a few passes: set-up is a median over all passes too, and each decision
// latency is a quantile of every pass's calls pooled in one histogram.
func (s *series) throughput() float64 { return median(s.tasksPerS()) }

// setup is the median set-up CPU time over all passes.
func (s *series) setup() float64 { return median(append([]float64(nil), s.setupS...)) }

// measure sets up and runs the workload pass after pass until budget has
// elapsed (at least one pass).
func measure(w benchWorkload, seed int64, budget time.Duration, m *meter) (*series, error) {
	s := &series{}
	start := time.Now()
	for len(s.results) == 0 || time.Since(start) < budget {
		if err := s.pass(w, seed, m); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// pass sets up and runs the workload once and records it.
func (s *series) pass(w benchWorkload, seed int64, m *meter) error {
	m.begin(spPass)
	m.begin(spSetup)
	t0 := cpuNow()
	r, err := w.setup(seed, m)
	t1 := cpuNow()
	m.end()
	if err != nil {
		return err
	}
	// Each run starts from a collected heap, so garbage left by set-up
	// or by the previous pass is not charged to it.
	runtime.GC()
	s.heapPeak = max(s.heapPeak, liveHeap())
	a0 := mallocs()
	m.begin(spRun)
	t2 := cpuNow()
	res := r.run(m)
	t3 := cpuNow()
	m.end()
	m.end()
	a1 := mallocs()
	s.heapPeak = max(s.heapPeak, liveHeap())
	s.setupS = append(s.setupS, float64(t1-t0)/1e9)
	s.runS = append(s.runS, float64(t3-t2)/1e9)
	s.allocs = append(s.allocs, float64(a1-a0)/float64(max(res.offered, 1)))
	s.results = append(s.results, res)
	return nil
}

// verdict applies the correctness gates to a series.
type verdict struct {
	attempted, failed uint64
	admitted, missed  uint64
	problems          []string
}

func (v *verdict) add(msg string) {
	v.failed++
	if len(v.problems) < 20 {
		v.problems = append(v.problems, msg)
	}
}

// judge applies the gates to every pass of the given series: each pass's
// own checks, and outputs identical to the first pass and to golden.json.
func judge(name string, seed int64, toy bool, all ...*series) verdict {
	var v verdict
	first := all[0].results[0].fingerprint
	for _, s := range all {
		for i, r := range s.results {
			v.attempted += r.offered
			v.admitted += r.admitted
			v.missed += r.missed
			v.failed += r.missed
			for _, f := range r.failures {
				v.add(fmt.Sprintf("pass %d: %s", i+1, f))
			}
			if r.fingerprint != first {
				v.add(fmt.Sprintf("pass %d diverged from the first: %s vs %s", i+1, r.fingerprint, first))
			}
		}
	}
	if v.attempted == 0 {
		v.attempted = 1
		v.add("no operation was attempted")
	}
	if toy {
		return v
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		v.add(fmt.Sprintf("golden.json: %v", err))
		return v
	}
	if want, ok := golden[name][strconv.FormatInt(seed, 10)]; ok && want != first {
		v.add(fmt.Sprintf("outputs differ from golden.json for seed %d: %s, want %s", seed, first, want))
	}
	return v
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes the benchmark and returns the exit code: 0 when every
// gate passed, 1 when a gate failed (the result is still printed), 2 on
// a usage or set-up error (nothing is printed on stdout).
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: tsce-hold, replay-diurnal or serve-p2c")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics with spans and a CPU profile")
	toy := fs.Bool("toy", false, "run at toy scale (smoke test)")
	root := fs.String("root", ".", "repository root, for the source digest")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where the traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w benchWorkload
	for _, wl := range workloads {
		if wl.name == *name {
			w = wl.make(*toy)
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (tsce-hold, replay-diurnal, serve-p2c), --seconds > 0 and --trace 0 or 1\n")
		return 2
	}
	h := stampHost(*root)
	hj, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "host %s\n", hj)

	budget := time.Duration(*seconds * float64(time.Second))
	// One untimed pass first, so caches, the heap and lazy set-up settle
	// before timing; its outputs are still checked.
	warm, err := measure(w, *seed, 0, &meter{})
	var res result
	if err == nil && *trace == 0 {
		res, err = endToEnd(stdout, *name, *seed, *toy, w, budget, warm)
	} else if err == nil {
		res, err = perLayer(stdout, *name, *seed, *toy, w, budget, warm, h, *traceDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	out, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

func printVerdict(stdout io.Writer, v verdict, s *series) {
	fmt.Fprintf(stdout, "miss_ratio       %.6g (%d of %d admitted)\n", ratio(v.missed, v.admitted), v.missed, v.admitted)
	fmt.Fprintf(stdout, "failed_ratio     %.6g (%d of %d attempted)\n", ratio(v.failed, v.attempted), v.failed, v.attempted)
	fmt.Fprintf(stdout, "outputs          %s\n", s.results[0].fingerprint)
	if v.failed == 0 {
		fmt.Fprintf(stdout, "gates            ok\n")
		return
	}
	for _, p := range v.problems {
		fmt.Fprintf(stdout, "gate FAILED      %s\n", p)
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEnd is the untraced run.
func endToEnd(stdout io.Writer, name string, seed int64, toy bool, w benchWorkload, budget time.Duration, warm *series) (result, error) {
	m := &meter{}
	s, err := measure(w, seed, budget, m)
	if err != nil {
		return result{}, err
	}
	v := judge(name, seed, toy, warm, s)
	first := s.results[0]
	metrics := map[string]metric{
		"setup_s":         {s.setup(), "s"},
		"tasks_per_cpu_s": {s.throughput(), "1/cpu-s"},
		"admit_p50_ns":    {m.admit.quantile(0.5), "ns"},
		"reject_p50_ns":   {m.reject.quantile(0.5), "ns"},
		"decision_p99_ns": {m.all.quantile(0.99), "ns"},
		"allocs_per_task": {median(s.allocs), "count"},
		"heap_peak_mb":    {float64(s.heapPeak) / (1 << 20), "MiB"},
		"admitted_ratio":  {ratio(first.admitted, first.offered), "ratio"},
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d passes in %v, tracing off\n", name, seed, len(s.results), budget)
	printMetrics(stdout, metrics)
	fmt.Fprintf(stdout, "decision samples %d admitted + %d rejected (p99 has %d beyond it)\n",
		m.admit.n, m.reject.n, m.all.n/100)
	printVerdict(stdout, v, s)
	return result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: metrics}, nil
}

func printMetrics(stdout io.Writer, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

// layers are the repository modules the per-layer metrics cover, in
// pipeline order, then the Go runtime's allocation and GC work.
var layers = []string{"des", "sched", "pipeline", "core", "workload", "online", "cluster", "runtime"}

// perLayer is the traced run. Traced passes, which record spans and a
// CPU profile, alternate with untraced ones, so the tracing overhead is
// measured under the same host conditions.
func perLayer(stdout io.Writer, name string, seed int64, toy bool, w benchWorkload, budget time.Duration, warm *series, h host, traceDir string) (result, error) {
	base, s := &series{}, &series{}
	um, m := &meter{}, &meter{tr: newTracer()}
	tr := m.tr
	buckets := map[string]float64{}
	start := time.Now()
	for len(s.results) == 0 || time.Since(start) < budget {
		if err := base.pass(w, seed, um); err != nil {
			return result{}, err
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, fmt.Errorf("starting CPU profile: %w", err)
		}
		err := s.pass(w, seed, m)
		pprof.StopCPUProfile()
		if err != nil {
			return result{}, err
		}
		b, err := profileBuckets(prof.Bytes())
		if err != nil {
			return result{}, fmt.Errorf("decoding CPU profile: %w", err)
		}
		for k, v := range b {
			buckets[k] += v
		}
	}
	v := judge(name, seed, toy, warm, base, s)

	passes := float64(len(s.results))
	last := s.results[len(s.results)-1]
	c := func(k string) float64 { return last.counters[k] }
	metrics := map[string]metric{}
	for _, k := range []string{
		"des.events", "workload.records", "core.admitted", "core.rejected",
		"core.waitqueue.admitted_immediately", "core.waitqueue.admitted_after_wait",
		"core.waitqueue.timed_out", "core.waitqueue.releases", "core.waitqueue.pending_at_release",
		"pipeline.offered", "pipeline.completed", "pipeline.missed",
		"sched.submitted", "sched.completed", "sched.preemptions", "sched.busy_periods",
		"online.admitted", "online.rejected", "online.expired", "online.cancelled",
		"cluster.placed", "cluster.rollbacks", "cluster.rejected",
	} {
		metrics[k] = metric{c(k), "count"}
	}
	metrics["des.events_per_task"] = metric{c("des.events") / float64(max(last.offered, 1)), "count"}
	var genS float64
	for _, r := range s.results {
		genS += r.genS
	}
	metrics["workload.gen_s"] = metric{genS / passes, "s"}
	useful := 0.0
	if p := c("core.waitqueue.pending_at_release"); p > 0 {
		useful = c("core.waitqueue.admitted_after_wait") / p
	}
	metrics["core.waitqueue.useful_ratio"] = metric{useful, "ratio"}
	for j := 1; j <= 3; j++ {
		k := fmt.Sprintf("sched.util.stage%d", j)
		metrics[k] = metric{c(k), "ratio"}
	}
	metrics["core.admit_ns_mean"] = metric{tr.meanNs(spCoreTryAdmit), "ns"}
	metrics["pipeline.offer_ns_mean"] = metric{tr.meanNs(spPipelineOffer), "ns"}
	metrics["online.release_ns_mean"] = metric{tr.meanNs(spClusterRelease), "ns"}
	metrics["cluster.route_admit_ns_mean"] = metric{m.calls[spClusterRoute][1].mean(), "ns"}
	metrics["cluster.route_reject_ns_mean"] = metric{m.calls[spClusterRoute][0].mean(), "ns"}
	for _, l := range layers {
		metrics[l+".self_s"] = metric{buckets[l] / passes, "s"}
	}

	fmt.Fprintf(stdout, "workload %s seed %d: %d untraced + %d traced passes in %v\n",
		name, seed, len(base.results), len(s.results), budget)
	spanSelf := tr.layerSelf()
	fmt.Fprintf(stdout, "%-10s %16s %16s\n", "layer", "span self s/pass", "cpu self s/pass")
	for _, l := range append(append([]string{}, layers...), "bench", "other") {
		fmt.Fprintf(stdout, "%-10s %16.6f %16.6f\n", l, spanSelf[l]/passes, buckets[l]/passes)
	}
	untraced, traced := base.throughput(), s.throughput()
	fmt.Fprintf(stdout, "tracing overhead: %.4g tasks/cpu-s untraced, %.4g traced (%.1f%% slower)\n",
		untraced, traced, 100*(1-traced/untraced))
	printMetrics(stdout, metrics)
	printVerdict(stdout, v, s)
	path, err := writeTrace(traceDir, name, seed, h, tr, buckets, passes)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "spans written to %s\n", path)
	return result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: metrics}, nil
}

// writeTrace writes the kept spans, the per-name span totals and the
// per-layer profile buckets as one JSON file.
func writeTrace(dir, name string, seed int64, h host, tr *tracer, buckets map[string]float64, passes float64) (string, error) {
	type total struct {
		Count  uint64  `json:"count"`
		TotalS float64 `json:"total_s"`
		SelfS  float64 `json:"self_s"`
	}
	totals := map[string]total{}
	for i, t := range tr.totals {
		if t.count > 0 {
			totals[spanNames[i]] = total{t.count, float64(t.totalNs) / 1e9, float64(t.selfNs) / 1e9}
		}
	}
	doc := struct {
		Host      host               `json:"host"`
		Workload  string             `json:"workload"`
		Seed      int64              `json:"seed"`
		Passes    float64            `json:"passes"`
		Spans     []span             `json:"spans"`
		Totals    map[string]total   `json:"span_totals"`
		ProfileS  map[string]float64 `json:"cpu_profile_s"`
		Truncated bool               `json:"spans_truncated"`
	}{h, name, seed, passes, tr.kept, totals, buckets, len(tr.kept) == cap(tr.kept)}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed))
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
