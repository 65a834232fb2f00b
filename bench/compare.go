package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readRuns loads a JSON-lines file written with -out.
func readRuns(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// side is one file's values of one workload × metric pairing.
type side struct {
	n           int
	q1, med, q3 float64
}

func summarize(vals []float64) side {
	if len(vals) == 0 {
		return side{}
	}
	q1, med, q3 := quartiles(vals)
	return side{n: len(vals), q1: q1, med: med, q3: q3}
}

// spread is the interquartile distance as a share of the median.
func (s side) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

// Verdicts of one row.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// minRunsPerSide is the fewest runs whose quartiles say anything.
const minRunsPerSide = 3

// verdict decides one row: "unresolved" when either side has too few runs
// or its own runs spread wider than the bound, "worse" when b's median is
// worse than a's by more than the bound in the metric's direction, "same"
// otherwise (which includes better: the harness claims no gains).
func verdict(a, b side, def metricDef, bound float64) (string, float64) {
	if a.n == 0 || b.n == 0 || a.med == 0 {
		return verdictUnresolved, 0
	}
	change := (b.med - a.med) / math.Abs(a.med)
	if a.n < minRunsPerSide || b.n < minRunsPerSide || a.spread() > bound || b.spread() > bound {
		return verdictUnresolved, change
	}
	worse := change
	if def.Better == "higher" {
		worse = -change
	}
	if worse > bound {
		return verdictWorse, change
	}
	return verdictSame, change
}

// collect groups a file's metric values by workload and metric. A metric
// is taken from the untraced runs when they measured it (end-to-end and
// workload metrics: tracing must be off) and from the traced runs
// otherwise (the layer metrics only they produce).
func collect(runs []runResult) map[string]map[string][]float64 {
	byTrace := map[bool]map[string]map[string][]float64{false: {}, true: {}}
	for _, r := range runs {
		m := byTrace[r.Trace][r.Workload]
		if m == nil {
			m = make(map[string][]float64)
			byTrace[r.Trace][r.Workload] = m
		}
		for name, v := range r.Metrics {
			m[name] = append(m[name], v)
		}
	}
	out := byTrace[false]
	for wl, metrics := range byTrace[true] {
		if out[wl] == nil {
			out[wl] = make(map[string][]float64)
		}
		for name, vals := range metrics {
			if len(out[wl][name]) == 0 {
				out[wl][name] = vals
			}
		}
	}
	return out
}

// compareFiles prints one row per workload × metric with both medians,
// quartiles, the bound and a verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	runsA, err := readRuns(pathA)
	if err != nil {
		return err
	}
	runsB, err := readRuns(pathB)
	if err != nil {
		return err
	}
	if len(runsA) == 0 || len(runsB) == 0 {
		return fmt.Errorf("no runs to compare (%d in %s, %d in %s)", len(runsA), pathA, len(runsB), pathB)
	}
	if runsA[0].Host != runsB[0].Host {
		fmt.Fprintf(w, "warning: the two files come from different hosts:\n  a: %+v\n  b: %+v\n", runsA[0].Host, runsB[0].Host)
	}
	a, b := collect(runsA), collect(runsB)
	fmt.Fprintf(w, "%-15s %-34s %-9s %13s %27s %13s %27s %8s %6s  %s\n",
		"workload", "metric", "unit", "a median", "a [q1, q3] n", "b median", "b [q1, q3] n", "change", "bound", "verdict")
	counts := map[string]int{}
	for _, wl := range workloads {
		for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			sa, sb := summarize(a[wl.name][def.Name]), summarize(b[wl.name][def.Name])
			if sa.n == 0 && sb.n == 0 || sa.med == 0 && sb.med == 0 {
				continue // not measured, or a layer this workload bypasses
			}
			bound := def.Bound
			if bound == 0 {
				bound = defaultBound
			}
			v, change := verdict(sa, sb, def, bound)
			counts[v]++
			fmt.Fprintf(w, "%-15s %-34s %-9s %13.6g %27s %13.6g %27s %+7.1f%% %5.0f%%  %s\n",
				wl.name, def.Name, def.Unit, sa.med, rangeOf(sa), sb.med, rangeOf(sb), change*100, bound*100, v)
		}
	}
	fmt.Fprintf(w, "%d same, %d worse, %d unresolved\n", counts[verdictSame], counts[verdictWorse], counts[verdictUnresolved])
	return nil
}

func rangeOf(s side) string {
	return fmt.Sprintf("[%.5g, %.5g] %d", s.q1, s.q3, s.n)
}
