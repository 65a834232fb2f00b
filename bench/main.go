// Command bench is the repository's benchmark: one seeded harness, four
// workloads, named end-to-end and per-layer metrics for the isolate VM.
// README.md explains the workloads and metrics; BENCHMARK.json at the
// repository root is the contract the acceptance driver runs it under.
//
//	bench -workload <name|all> -seed <n> -seconds <s> -trace <0|1> [-out runs.jsonl] [-trace-out spans.json]
//	bench -compare a.jsonl b.jsonl
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

//go:embed expected.json
var expectedJSON []byte

// expectedFile is bench/expected.json: the first-iteration output of every
// program for one seed. A run with that seed must reproduce it.
type expectedFile struct {
	Seed      int64                       `json:"seed"`
	Checksums map[string]map[string]int64 `json:"checksums"` // workload → program → output
}

func loadExpected() (expectedFile, error) {
	var e expectedFile
	err := json.Unmarshal(expectedJSON, &e)
	return e, err
}

// checkExpected compares the outputs recorded during set-up and verify
// with expected.json when the run uses the committed seed.
func checkExpected(h *harness, workload string) error {
	e, err := loadExpected()
	if err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	if e.Seed != h.cfg.seed {
		return nil
	}
	want := e.Checksums[workload]
	if len(want) != len(h.checksums) {
		return fmt.Errorf("expected.json lists %d outputs for %s, the run produced %d", len(want), workload, len(h.checksums))
	}
	for name, got := range h.checksums {
		if w, ok := want[name]; !ok || w != got {
			return fmt.Errorf("%s/%s: output %d, expected.json has %d", workload, name, got, w)
		}
	}
	return nil
}

// hostInfo is the fingerprint recorded with every run: numbers from
// different hosts are not comparable.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	OS         string `json:"os_arch"`
}

func hostFingerprint() hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// contractLine is the last line of standard output the acceptance driver
// parses.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func toContract(results []*runResult) contractLine {
	line := contractLine{Correct: true, Metrics: make(map[string]contractMetric)}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, def := range contractMetrics(r.Trace) {
			key := def.Name
			if len(results) > 1 {
				key = r.Workload + "/" + def.Name
			}
			line.Metrics[key] = contractMetric{Value: r.Metrics[def.Name], Unit: def.Unit}
		}
	}
	return line
}

// printTable writes one run's metrics by name with their units.
func printTable(r *runResult) {
	fmt.Printf("== %s  seed=%d  window=%gs  trace=%v  ops_attempted=%d ops_failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n, v := range r.Metrics {
		if v != 0 {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		_, ki := lookupMetric(names[i])
		_, kj := lookupMetric(names[j])
		if ki != kj {
			return ki < kj // end_to_end before per_layer
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		def, kind := lookupMetric(n)
		fmt.Printf("  %-34s %16.6g %-9s (%s, %s is better)\n", n, r.Metrics[n], def.Unit, kind, def.Better)
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, p := range r.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
}

func appendRun(path string, r *runResult) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		cfg      config
		workload string
		trace    int
		out      string
		traceOut string
		compare  bool
		writeExp string
	)
	flag.StringVar(&workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window per workload")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	flag.StringVar(&out, "out", "", "append each run's record to this JSON-lines file (input of -compare)")
	flag.StringVar(&traceOut, "trace-out", "", "with -trace 1, write the spans to this JSON file (default .bench_build/trace_<workload>.json when that directory exists)")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	flag.StringVar(&writeExp, "write-expected", "", "run every workload with -seed and write its outputs to this expected.json")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two run files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	cfg.trace = trace == 1

	selected := workloads
	if workload != "all" {
		w, ok := findWorkload(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		selected = []workloadDef{w}
	}

	var results []*runResult
	for _, w := range selected {
		to := traceOut
		if to == "" {
			if st, err := os.Stat(".bench_build"); err == nil && st.IsDir() {
				to = ".bench_build/trace_" + w.name + ".json"
			}
		}
		r, err := runWorkload(w, cfg, to)
		if err != nil {
			return err
		}
		printTable(r)
		if out != "" {
			if err := appendRun(out, r); err != nil {
				return err
			}
		}
		results = append(results, r)
	}

	if writeExp != "" {
		e := expectedFile{Seed: cfg.seed, Checksums: make(map[string]map[string]int64)}
		for _, r := range results {
			e.Checksums[r.Workload] = r.Checksums
		}
		data, err := json.MarshalIndent(e, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(writeExp, append(data, '\n'), 0o644)
	}

	line, err := json.Marshal(toContract(results))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	for _, r := range results {
		if !r.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}
