package bench

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/serve"
)

// The instrumentation-overhead benchmark behind BENCH_serveobs.json:
// FT jobs served through the real HTTP stack by two servers, one at
// observe=full (per-job tracer, stamped journal teed into the flight
// recorder, job-labeled metric series) and one at observe=slo (the
// anonymous SLO telemetry only). Each pair serves the same seed on both,
// alternating which goes first, and compares their execution windows
// (started → finished, queue wait excluded). The acceptance gate is that
// request-scoped observability costs ≤ 3% on the serving path.

// ServeObsArm is one arm (one Observe level) of the comparison.
type ServeObsArm struct {
	Observe string `json:"observe"`
	// ExecSeconds is the execution time of one job.
	ExecSeconds Spread `json:"exec_seconds"`
	// P50/P95/P99 are job-duration quantiles from the arm's
	// serve_job_duration_seconds histograms (all outcomes merged).
	P50 float64 `json:"p50_seconds"`
	P95 float64 `json:"p95_seconds"`
	P99 float64 `json:"p99_seconds"`
}

// ServeObsArtifact is the committed BENCH_serveobs.json.
type ServeObsArtifact struct {
	Provenance Provenance `json:"provenance"`
	N          int        `json:"n"`
	NB         int        `json:"nb"`
	// Seeds is how many distinct jobs the pairs cycle through.
	Seeds int         `json:"seeds"`
	Pairs int         `json:"pairs"`
	Full  ServeObsArm `json:"full"`
	SLO   ServeObsArm `json:"slo"`
	// OverheadPct is 100·(full/slo − 1), pair by pair.
	OverheadPct Spread `json:"overhead_pct"`
}

// ServeObs runs the paired comparison and builds the artifact.
func ServeObs(n, nb, seeds, pairs int) (art *ServeObsArtifact, err error) {
	art = &ServeObsArtifact{Provenance: stamp(), N: n, NB: nb, Seeds: seeds, Pairs: pairs}
	slo := newHarness(serve.Config{Capacity: 1, Observe: serve.ObserveSLO})
	full := newHarness(serve.Config{Capacity: 1, Observe: serve.ObserveFull})
	defer func() {
		if cerr := errors.Join(slo.close(), full.close()); err == nil {
			err = cerr
		}
	}()
	// The k-th call of either arm serves seed 1 + k mod seeds, so both
	// arms of a pair serve the same job.
	serveOne := func(h *harness) arm {
		calls := 0
		return func() (float64, error) {
			seed := 1 + calls%seeds
			calls++
			outs, err := h.run(fmt.Sprintf(`{"algorithm":"ft","n":%d,"nb":%d,"seed":%d}`, n, nb, seed))
			if err != nil {
				return 0, err
			}
			return outs[0].duration, nil
		}
	}
	p, err := paired(pairs, serveOne(slo), serveOne(full))
	if err != nil {
		return nil, err
	}
	result := func(observe string, exec Spread, h *harness) ServeObsArm {
		var snap obs.HistogramSnapshot
		for _, s := range obs.MergeBy(h.reg, "serve_job_duration_seconds", "outcome") {
			snap.Merge(s)
		}
		q := snap.Quantiles(obs.ExportQuantiles...)
		return ServeObsArm{Observe: observe, ExecSeconds: exec, P50: q[0], P95: q[1], P99: q[2]}
	}
	art.SLO, art.Full = result(serve.ObserveSLO, p.A, slo), result(serve.ObserveFull, p.B, full)
	art.OverheadPct = p.Ratio.pct()
	return art, nil
}

// Report prints the comparison as a table.
func (art *ServeObsArtifact) Report(w io.Writer) {
	fmt.Fprintf(w, "Serving-path instrumentation overhead (N=%d, nb=%d FT jobs over %d seeds, median [Q1, Q3] of %d alternating pairs)\n",
		art.N, art.NB, art.Seeds, art.Pairs)
	fmt.Fprintf(w, "%-8s %10s %10s %10s %10s\n", "observe", "exec (s)", "p50 (s)", "p95 (s)", "p99 (s)")
	for _, a := range []ServeObsArm{art.SLO, art.Full} {
		fmt.Fprintf(w, "%-8s %10.4f %10.4f %10.4f %10.4f\n", a.Observe, a.ExecSeconds.Median, a.P50, a.P95, a.P99)
	}
	o := art.OverheadPct
	fmt.Fprintf(w, "overhead: %+.2f%% [%+.2f, %+.2f] (acceptance gate: <= 3%%)\n", o.Median, o.Q1, o.Q3)
}

// WallCheck enforces the gate: observe=full costs ≤3% at the paired
// median.
func (art *ServeObsArtifact) WallCheck() error {
	if o := art.OverheadPct.Median; o > 3 {
		return fmt.Errorf("observe=full overhead %+.2f%% above the 3%% gate", o)
	}
	return nil
}
