package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		known := false
		for _, wl := range workloads {
			known = known || wl.name == w.Name
		}
		if !known {
			t.Errorf("BENCHMARK.json declares workload %q, which the benchmark does not run", w.Name)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload at toy scale on the default and the
// held-out seed, traced and untraced: every gate must pass, and the
// printed metrics must be exactly those BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			for _, trace := range []string{"0", "1"} {
				name := w.name + "/seed" + strconv.FormatInt(seed, 10) + "/trace" + trace
				t.Run(name, func(t *testing.T) {
					var out bytes.Buffer
					code := run([]string{
						"--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
						"--seconds", "0.2", "--trace", trace, "--toy",
						"--root", "..", "--trace-dir", t.TempDir(),
					}, &out)
					lines := strings.Split(strings.TrimSpace(out.String()), "\n")
					if code != 0 {
						t.Fatalf("exit code %d:\n%s", code, out.String())
					}
					var res map[string]json.RawMessage
					if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
						t.Fatalf("last line is not JSON: %v", err)
					}
					for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
						if _, ok := res[k]; !ok {
							t.Errorf("result lacks %q", k)
						}
					}
					if len(res) != 4 {
						t.Errorf("result has %d keys, want 4", len(res))
					}
					var r result
					if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
						t.Fatal(err)
					}
					if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
						t.Errorf("correct=%v failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
					}
					want := endToEnd
					if trace == "1" {
						want = perLayer
					}
					for k, m := range r.Metrics {
						if unit, ok := want[k]; !ok {
							t.Errorf("metric %q is not declared in BENCHMARK.json", k)
						} else if unit != m.Unit {
							t.Errorf("metric %q has unit %q, BENCHMARK.json says %q", k, m.Unit, unit)
						}
					}
					for k := range want {
						if _, ok := r.Metrics[k]; !ok {
							t.Errorf("declared metric %q was not printed", k)
						}
					}
				})
			}
		}
	}
}

// TestLayerOf pins the attribution rules of the CPU-profile buckets.
func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"feasregion/internal/des.(*Simulator).Run", "main.measure"}, "des"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "feasregion/internal/core.(*Ledger).Remove"}, "core"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "feasregion/internal/core.(*Controller).commit"}, "runtime"},
		{[]string{"feasregion/internal/expiry.(*Wheel).Push", "feasregion/internal/online.(*Controller).admit"}, "online"},
		{[]string{"time.Now", "main.(*schedClock).now", "feasregion/internal/online.(*Controller).nowMonotoneNano"}, "online"},
		{[]string{"time.Now", "main.now", "main.(*servePass).run"}, "bench"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestHistQuantile checks the nearest-rank quantiles, including values
// beyond the linear range.
func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100; v++ {
		h.add(v)
	}
	h.add(linearNs + 5)
	if got := h.quantile(0.5); got != 51 {
		t.Errorf("p50 = %v, want 51", got)
	}
	if got := h.quantile(1); got != linearNs+5 {
		t.Errorf("p100 = %v, want %d", got, linearNs+5)
	}
}
