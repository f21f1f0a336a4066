package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadRuns reads every end-to-end result file in dir and returns, per
// workload, each metric's values across the runs, plus the total of
// failed ops.
func loadRuns(dir string) (map[string]map[string][]float64, int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*_e2e.json"))
	if err != nil {
		return nil, 0, err
	}
	if len(files) == 0 {
		return nil, 0, fmt.Errorf("no *_e2e.json result files in %s", dir)
	}
	sort.Strings(files)
	runs := map[string]map[string][]float64{}
	failed := 0
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, 0, err
		}
		var r resultFile
		if err := json.Unmarshal(buf, &r); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", f, err)
		}
		failed += r.Failed
		if runs[r.Workload] == nil {
			runs[r.Workload] = map[string][]float64{}
		}
		for _, m := range r.Metrics {
			runs[r.Workload][m.Name] = append(runs[r.Workload][m.Name], m.Value)
		}
		for _, k := range wallFigures {
			if v, ok := r.Wall[k]; ok {
				runs[r.Workload]["wall."+k] = append(runs[r.Workload]["wall."+k], v)
			}
		}
	}
	return runs, failed, nil
}

// wallFigures are the raw wall-clock figures -compare shows without a
// verdict (README.md, "Why raw wall time is not gated").
var wallFigures = []string{"latency_p50_s", "throughput_per_s", "cpu_s_per_op"}

// worsening is how much b is worse than a, as a share of a (negative
// when b is better).
func worsening(s metricSpec, a, b float64) float64 {
	d := ratio(b-a, a)
	if s.Better == "higher" {
		return -d
	}
	return d
}

// compareDirs prints, for each workload and end-to-end metric, the
// median and interquartile range of both result sets, the change of the
// median, and whether that change stays within the metric's bound. ok
// is false when a median worsened beyond its bound, a workload is
// missing from B, or any op failed.
func compareDirs(w io.Writer, dirA, dirB string) (ok bool, err error) {
	a, failedA, err := loadRuns(dirA)
	if err != nil {
		return false, err
	}
	b, failedB, err := loadRuns(dirB)
	if err != nil {
		return false, err
	}
	ok = failedA == 0 && failedB == 0
	fmt.Fprintf(w, "A = %s (failed ops %d)\nB = %s (failed ops %d)\n", dirA, failedA, dirB, failedB)
	fmt.Fprintf(w, "%-15s %-24s %14s %9s %14s %9s %9s %8s  %s\n",
		"workload", "metric", "median A", "IQR A", "median B", "IQR B", "delta", "bound", "verdict")
	for _, wl := range workloads {
		ma, mb := a[wl.name], b[wl.name]
		if ma == nil && mb == nil {
			continue
		}
		if ma == nil || mb == nil {
			fmt.Fprintf(w, "%-15s missing from one set\n", wl.name)
			ok = false
			continue
		}
		for _, s := range e2eMetrics {
			va, vb := ma[s.Name], mb[s.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-15s %-24s missing\n", wl.name, s.Name)
				ok = false
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			worse := worsening(s, qa[1], qb[1])
			verdict := "within bound"
			if worse > s.Bound {
				verdict = "WORSE beyond bound"
				ok = false
			}
			row(w, wl.name, s.Name, qa, qb, fmt.Sprintf("%7.2g%%  %s", 100*s.Bound, verdict))
		}
		for _, k := range wallFigures {
			if va, vb := ma["wall."+k], mb["wall."+k]; len(va) > 0 && len(vb) > 0 {
				row(w, wl.name, "wall."+k, quartiles(va), quartiles(vb), "         not gated")
			}
		}
	}
	return ok, nil
}

// row prints one metric's medians, IQRs and median change.
func row(w io.Writer, workload, name string, qa, qb [3]float64, verdict string) {
	fmt.Fprintf(w, "%-15s %-24s %14.6g %8.2f%% %14.6g %8.2f%% %+8.2f%% %s\n",
		workload, name, qa[1], 100*ratio(qa[2]-qa[0], qa[1]), qb[1], 100*ratio(qb[2]-qb[0], qb[1]),
		100*ratio(qb[1]-qa[1], qa[1]), verdict)
}
