package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesTables fails when BENCHMARK.json and the Go
// metric and workload tables drift apart.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, f.Workloads[i].Name, w.name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(f.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		got := f.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, got, d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmokeAllWorkloads runs every workload with a short window, untraced
// and traced, and checks that every metric BENCHMARK.json names is emitted
// once with a finite value, that no operation failed, and that tracing
// changed neither the outputs nor the instruction counts.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads twice")
	}
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			var runs [2]*runResult
			for i, trace := range []bool{false, true} {
				cfg := config{seed: 7, seconds: 0.2, trace: trace}
				tracePath := ""
				if trace {
					tracePath = filepath.Join(t.TempDir(), "trace.json")
				}
				r, err := runWorkload(w, cfg, tracePath)
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed != 0 || !r.Correct {
					t.Fatalf("trace=%v: %d of %d operations failed: %v", trace, r.Failed, r.Attempted, r.Problems)
				}
				if r.Attempted < 1 {
					t.Fatalf("trace=%v: no operation attempted", trace)
				}
				line := toContract([]*runResult{r})
				want := map[string]string{}
				if trace {
					for _, m := range f.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range f.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics emitted, BENCHMARK.json names %d", trace, len(line.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := line.Metrics[name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s not emitted", trace, name)
					case m.Unit != unit:
						t.Errorf("trace=%v: metric %s has unit %q, want %q", trace, name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("trace=%v: metric %s is %v", trace, name, m.Value)
					case !trace && m.Value == 0:
						t.Errorf("end-to-end metric %s is 0", name)
					}
				}
				if trace {
					data, err := os.ReadFile(tracePath)
					if err != nil {
						t.Fatal(err)
					}
					var tf traceFile
					if err := json.Unmarshal(data, &tf); err != nil {
						t.Fatal(err)
					}
					if len(tf.Spans) == 0 {
						t.Error("the traced run wrote no spans")
					}
					if _, ok := line.Metrics["trace_overhead"]; !ok {
						t.Error("trace_overhead not emitted")
					}
				}
				runs[i] = r
			}
			for name, sum := range runs[0].Checksums {
				if runs[1].Checksums[name] != sum {
					t.Errorf("%s: output %d untraced, %d traced", name, sum, runs[1].Checksums[name])
				}
				if runs[1].Instrs[name] != runs[0].Instrs[name] {
					t.Errorf("%s: %d instructions untraced, %d traced", name, runs[0].Instrs[name], runs[1].Instrs[name])
				}
			}
		})
	}
}

// TestExpectedOutputs runs each workload's set-up and verification with
// the committed seed and compares the outputs with expected.json.
func TestExpectedOutputs(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		h := newHarness(config{seed: exp.Seed, seconds: 0.1})
		e, err := w.setup(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.verify(h); err != nil {
			t.Fatal(err)
		}
		e.close()
		if err := checkExpected(h, w.name); err != nil {
			t.Error(err)
		}
		if h.failed.Load() != 0 {
			t.Errorf("%s: %v", w.name, h.problems)
		}
	}
}

func TestMedianQuartilesGeomean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 1,3,5 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean of 1,4,16 = %v", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); pct != 99 || v != 1980 {
		t.Errorf("tail of 1..2000 = %v at p%d, want 1980 at p99", v, pct)
	}
	// 500 samples leave only 5 beyond p99: fall back to p95.
	if _, pct := tail(xs[:500]); pct != 95 {
		t.Errorf("tail of 500 samples reported at p%d, want p95", pct)
	}
	if v, pct := tail(xs[:20]); pct != 50 || v != 10.5 {
		t.Errorf("tail of 20 samples = %v at p%d, want the median", v, pct)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "session", Layer: benchLayer, Track: 0, Start: 0, End: 100, Parent: -1},
		{Name: "acquire", Layer: "serve", Track: 0, Start: 10, End: 30, Parent: -1},
		{Name: "await", Layer: "sched", Track: 0, Start: 40, End: 90, Parent: -1},
		{Name: "snapshots", Layer: "core", Track: 0, Start: 50, End: 60, Parent: -1},
		// Another goroutine's span overlaps in time but is not a child.
		{Name: "acquire", Layer: "serve", Track: 1, Start: 20, End: 25, Parent: -1},
	}
	self := linkAndSelf(spans)
	want := map[string]float64{benchLayer: 30, "serve": 25, "sched": 40, "core": 10}
	for layer, ns := range want {
		if self[layer] != ns {
			t.Errorf("self time of %s = %v, want %v", layer, self[layer], ns)
		}
	}
	if spans[1].Parent != 0 || spans[2].Parent != 0 || spans[3].Parent != 2 || spans[4].Parent != -1 {
		t.Errorf("parents = %d %d %d %d, want 0 0 2 -1", spans[1].Parent, spans[2].Parent, spans[3].Parent, spans[4].Parent)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, values []float64, tput []float64) string {
		path := filepath.Join(dir, name)
		for i, v := range values {
			r := &runResult{Workload: "spec_compute", Seed: int64(i + 1),
				Metrics: map[string]float64{"op_p50_us": v, "guest_minstr_per_s": tput[i], "isolation_overhead": 1.1}}
			if err := appendRun(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", []float64{100, 101, 99, 100, 102}, []float64{200, 201, 199, 200, 202})
	// op_p50_us 40% slower (lower is better): worse. Throughput scattered: unresolved.
	b := write("b.jsonl", []float64{140, 141, 139, 140, 142}, []float64{150, 260, 190, 240, 120})
	var out bytes.Buffer
	if err := compareFiles(&out, a, b); err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && f[0] == "spec_compute" {
			rows[f[1]] = f[len(f)-1]
		}
	}
	want := map[string]string{"op_p50_us": verdictWorse, "guest_minstr_per_s": verdictUnresolved, "isolation_overhead": verdictSame}
	for metric, v := range want {
		if rows[metric] != v {
			t.Errorf("%s: verdict %q, want %q\n%s", metric, rows[metric], v, out.String())
		}
	}
}
