package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// loadResults reads one result file, or every <workload>.json of a
// directory that run.sh filled, keyed by workload.
func loadResults(sp *benchSpec, path string) (map[string]*result, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		files = files[:0]
		for _, w := range sp.Workloads {
			files = append(files, filepath.Join(path, w.Name+".json"))
		}
	}
	out := make(map[string]*result)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[r.Workload] = &r
	}
	return out, nil
}

// verdict classifies how b moved against a for one metric. delta is b's
// median against a's as a share of a's, signed so that positive is worse.
// A move inside the bound is "same" only when a's own trial-to-trial spread
// is inside the bound too; a move outside it is "better"/"worse" only when
// the two interquartile ranges are disjoint. Everything else is
// "unresolved": the run-to-run spread is too wide to say.
func verdict(m specMetric, a, b summary) (string, float64) {
	if a.Median == 0 {
		return "unresolved", 0
	}
	delta := (b.Median - a.Median) / a.Median
	if m.Better == "higher" {
		delta = -delta
	}
	disjoint := a.Q3 < b.Q1 || b.Q3 < a.Q1
	switch {
	case delta > m.Bound && disjoint:
		return "worse", delta
	case delta < -m.Bound && disjoint:
		return "better", delta
	case delta <= m.Bound && delta >= -m.Bound && a.spread() <= m.Bound:
		return "same", delta
	}
	return "unresolved", delta
}

// compareResults applies BENCHMARK.json's bounds to every end-to-end metric
// of every workload present in both sets and prints one row each, with both
// medians, both interquartile ranges and the base of the ratio. It reports
// whether any metric came out worse.
func compareResults(w io.Writer, sp *benchSpec, pathA, pathB string) (worse bool, err error) {
	a, err := loadResults(sp, pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(sp, pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A (base of every ratio) = %s\nB = %s\n", pathA, pathB)
	fmt.Fprintf(w, "%-20s %-20s %-10s %9s %7s  %-38s %s\n", "workload", "metric", "verdict", "B vs A", "bound", "A median [q1, q3] n", "B median [q1, q3] n")
	for _, wl := range sp.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(w, "%-20s failed operations: A %d/%d, B %d/%d\n", wl.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			worse = worse || rb.Failed > ra.Failed
		}
		for _, m := range sp.EndToEnd {
			sa, sb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			v, delta := verdict(m, sa, sb)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-20s %-20s %-10s %+8.2f%% %6.0f%%  %-38s %s\n", wl.Name, m.Name, v, delta*100, m.Bound*100, cell(sa), cell(sb))
		}
	}
	fmt.Fprintln(w, "B vs A is signed so that positive is worse, as a share of A's median.")
	return worse, nil
}

func cell(s summary) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g] %d %s", s.Median, s.Q1, s.Q3, s.N, s.Unit)
}
