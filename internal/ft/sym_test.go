package ft

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gpu"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// symResidual returns ‖A − Q·T·Qᵀ‖₁/(N‖A‖₁).
func symResidual(a *matrix.Matrix, r *SymResult) float64 {
	return lapack.FactorizationResidual(a, r.Q(), r.T())
}

func TestFaultFreeMatchesDsytrd(t *testing.T) {
	for _, tc := range []struct{ n, nb int }{{64, 8}, {100, 16}, {150, 32}} {
		a := matrix.RandomSymmetric(tc.n, uint64(tc.n))
		res, err := ReduceSym(a, SymOptions{NB: tc.nb})
		if err != nil {
			t.Fatal(err)
		}
		if res.Detections != 0 {
			t.Fatalf("n=%d: phantom detections %d", tc.n, res.Detections)
		}
		// Reference: plain blocked DSYTRD.
		wref := a.Clone()
		d := make([]float64, tc.n)
		e := make([]float64, tc.n-1)
		tau := make([]float64, tc.n-1)
		lapack.Dsytrd(tc.n, tc.nb, wref.Data, wref.Stride, d, e, tau)
		for i := 0; i < tc.n; i++ {
			if math.Abs(res.D[i]-d[i]) > 1e-11 {
				t.Fatalf("n=%d: d[%d] %v vs %v", tc.n, i, res.D[i], d[i])
			}
		}
		for i := 0; i < tc.n-1; i++ {
			if math.Abs(res.E[i]-e[i]) > 1e-11 {
				t.Fatalf("n=%d: e[%d] %v vs %v", tc.n, i, res.E[i], e[i])
			}
		}
		if r := symResidual(a, res); r > 1e-14 {
			t.Fatalf("n=%d: residual %v", tc.n, r)
		}
	}
}

// symPokeHook corrupts one stored element at an iteration boundary.
type symPokeHook struct {
	iter     int
	row, col int
	delta    float64
	fired    bool
}

func (h *symPokeHook) BeforeIteration(iter, panel int, w *matrix.Matrix) {
	if iter != h.iter || h.fired {
		return
	}
	h.fired = true
	w.Add(h.row, h.col, h.delta)
}

func TestRecoversOffDiagonalError(t *testing.T) {
	n, nb := 150, 32
	a := matrix.RandomSymmetric(n, 3)
	hook := &symPokeHook{iter: 1, row: 100, col: 60, delta: 2.0}
	res, err := ReduceSym(a, SymOptions{NB: nb, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == 0 || res.Recoveries == 0 {
		t.Fatalf("fault not handled: %+v", res)
	}
	if len(res.CorrectedH) != 1 || res.CorrectedH[0].Row != 100 || res.CorrectedH[0].Col != 60 {
		t.Fatalf("correction log %+v", res.CorrectedH)
	}
	if r := symResidual(a, res); r > 1e-13 {
		t.Fatalf("residual after recovery %v", r)
	}
}

func TestRecoversDiagonalError(t *testing.T) {
	// The symmetric detector locates diagonal errors — a strict
	// improvement over the Hessenberg Sre/Sce comparison, which is blind
	// to them.
	n, nb := 100, 16
	a := matrix.RandomSymmetric(n, 5)
	hook := &symPokeHook{iter: 2, row: 70, col: 70, delta: 1.5}
	res, err := ReduceSym(a, SymOptions{NB: nb, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries == 0 {
		t.Fatal("diagonal error not recovered")
	}
	if len(res.CorrectedH) != 1 || res.CorrectedH[0].Row != 70 || res.CorrectedH[0].Col != 70 {
		t.Fatalf("correction log %+v", res.CorrectedH)
	}
	if r := symResidual(a, res); r > 1e-13 {
		t.Fatalf("residual %v", r)
	}
}

func TestRecoveredMatchesCleanRun(t *testing.T) {
	n, nb := 100, 16
	a := matrix.RandomSymmetric(n, 7)
	clean, err := ReduceSym(a, SymOptions{NB: nb})
	if err != nil {
		t.Fatal(err)
	}
	hook := &symPokeHook{iter: 1, row: 50, col: 30, delta: 3}
	dirty, err := ReduceSym(a, SymOptions{NB: nb, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.D {
		if math.Abs(clean.D[i]-dirty.D[i]) > 1e-10 {
			t.Fatalf("d[%d] differs after recovery: %v vs %v", i, dirty.D[i], clean.D[i])
		}
	}
}

func TestPanelErrorRecovered(t *testing.T) {
	// Error inside the about-to-be-factored panel: the checkpoint is
	// taken after injection, so location must patch the restored state.
	n, nb := 150, 32
	a := matrix.RandomSymmetric(n, 9)
	hook := &symPokeHook{iter: 1, row: 90, col: 40, delta: 2.5} // col 40 ∈ panel [32,64)
	res, err := ReduceSym(a, SymOptions{NB: nb, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries == 0 {
		t.Fatal("panel error not recovered")
	}
	if r := symResidual(a, res); r > 1e-13 {
		t.Fatalf("residual %v", r)
	}
}

func TestEigenvaluesSurviveFault(t *testing.T) {
	n, nb := 126, 16
	a := matrix.RandomSymmetric(n, 11)
	clean, err := lapack.SymEigenvalues(a.Data, n, a.Stride, nb)
	if err != nil {
		t.Fatal(err)
	}
	hook := &symPokeHook{iter: 2, row: 80, col: 50, delta: 4}
	res, err := ReduceSym(a, SymOptions{NB: nb, Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	d := append([]float64(nil), res.D...)
	e := append([]float64(nil), res.E...)
	if err := lapack.Dsterf(n, d, e); err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if math.Abs(d[i]-clean[i]) > 1e-9 {
			t.Fatalf("λ_%d drifted: %v vs %v", i, d[i], clean[i])
		}
	}
}

func TestRecoversFaultsInTwoIterations(t *testing.T) {
	// The first fault sits in the last nb rows, whose residuals the later
	// windows no longer cover: location must read only the rows of its own
	// window, or those left-over residuals flag rows outside it.
	n, nb := 100, 16
	a := matrix.RandomSymmetric(n, 17)
	clean, err := ReduceSym(a, SymOptions{NB: nb})
	if err != nil {
		t.Fatal(err)
	}
	for _, delta2 := range []float64{2, 3.5} {
		hook := symMultiHook{
			&symPokeHook{iter: 0, row: 99, col: 90, delta: 2},
			&symPokeHook{iter: 2, row: 70, col: 50, delta: delta2},
		}
		res, err := ReduceSym(a, SymOptions{NB: nb, Hook: hook})
		if err != nil {
			t.Fatalf("second delta %v: %v", delta2, err)
		}
		if res.Recoveries != 2 || len(res.CorrectedH) != 2 {
			t.Fatalf("second delta %v: %d recoveries, corrections %+v", delta2, res.Recoveries, res.CorrectedH)
		}
		for i, want := range [][2]int{{99, 90}, {70, 50}} {
			if c := res.CorrectedH[i]; c.Row != want[0] || c.Col != want[1] {
				t.Fatalf("second delta %v: correction %d at (%d,%d), want %v", delta2, i, c.Row, c.Col, want)
			}
		}
		for i := range clean.D {
			if math.Abs(clean.D[i]-res.D[i]) > 1e-10 {
				t.Fatalf("second delta %v: d[%d] %v vs clean %v", delta2, i, res.D[i], clean.D[i])
			}
		}
	}
}

func TestTransfersWaitForTheirKernels(t *testing.T) {
	// On the modeled streams, a copy runs only after the kernels it
	// depends on: once the first SYR2K is issued, every D2H (residuals,
	// panel offloads, the redo's panel after the correction) starts after
	// all earlier compute work ends, and every H2D after the last SYR2K
	// (the panel restore overwrites the V the reversal reads). The first
	// panel offload may overlap the encoding SYMV: both only read A.
	dev := gpu.New(sim.K40c(), gpu.Real)
	dev.EnableTrace()
	hook := &symPokeHook{iter: 1, row: 50, col: 30, delta: 3}
	res, err := ReduceSym(matrix.RandomSymmetric(100, 7), SymOptions{NB: 16, Hook: hook, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("%d recoveries, want 1", res.Recoveries)
	}
	const eps = 1e-12
	computeEnd, syr2kEnd := 0.0, 0.0
	for i, sp := range dev.Trace() {
		switch {
		case sp.Lane == dev.Compute.Name():
			computeEnd = math.Max(computeEnd, sp.End)
			if sp.Kind == "gemm" {
				syr2kEnd = sp.End
			}
		case sp.Kind == "d2h" && syr2kEnd > 0 && sp.Start < computeEnd-eps:
			t.Fatalf("span %d: D2H starts at %g before compute work ending at %g", i, sp.Start, computeEnd)
		case sp.Kind == "h2d" && sp.Start < syr2kEnd-eps:
			t.Fatalf("span %d: H2D starts at %g before the SYR2K ending at %g", i, sp.Start, syr2kEnd)
		}
	}
}

func TestAmbiguousSymErrors(t *testing.T) {
	// Two off-diagonal errors with equal deltas flag four rows with equal
	// residuals — pairing is ambiguous and must be refused.
	n, nb := 100, 16
	a := matrix.RandomSymmetric(n, 13)
	hookA := &symPokeHook{iter: 1, row: 60, col: 40, delta: 2}
	hookB := &symPokeHook{iter: 1, row: 80, col: 50, delta: 2}
	_, err := ReduceSym(a, SymOptions{NB: nb, Hook: symMultiHook{hookA, hookB}})
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("expected ErrUncorrectable, got %v", err)
	}
}

type symMultiHook []SymHook

func (m symMultiHook) BeforeIteration(iter, panel int, w *matrix.Matrix) {
	for _, h := range m {
		h.BeforeIteration(iter, panel, w)
	}
}

func TestValidation(t *testing.T) {
	if _, err := ReduceSym(matrix.New(3, 4), SymOptions{}); err == nil {
		t.Fatal("non-square accepted")
	}
	for n := 0; n <= 2; n++ {
		if _, err := ReduceSym(matrix.RandomSymmetric(n, 1), SymOptions{NB: 4}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// Property: single off-diagonal errors at random positions/iterations are
// always detected and repaired. Positions keep their row in the trailing
// window (row ≥ p+nb): errors whose entire footprint lies inside the
// nb×nb panel triangle are outside the detector's stated coverage (that
// data is host-resident in the hybrid setting; see sym.go).
func TestPropSingleSymErrorRecovered(t *testing.T) {
	f := func(seed uint64) bool {
		n, nb := 100, 16
		a := matrix.RandomSymmetric(n, seed)
		rng := matrix.NewRNG(seed)
		iter := rng.Intn(3)
		p := iter * nb
		row := p + nb + rng.Intn(n-p-nb)
		col := p + rng.Intn(row-p)
		delta := 0.5 + 5*rng.Float64()
		hook := &symPokeHook{iter: iter, row: row, col: col, delta: delta}
		res, err := ReduceSym(a, SymOptions{NB: nb, Hook: hook})
		if err != nil {
			t.Logf("seed %d (%d,%d)@%d: %v", seed, row, col, iter, err)
			return false
		}
		if res.Detections == 0 {
			t.Logf("seed %d (%d,%d)@%d: undetected", seed, row, col, iter)
			return false
		}
		if r := symResidual(a, res); r > 1e-13 {
			t.Logf("seed %d: residual %v", seed, r)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// A non-finite stored element drives its row sums to ±Inf or NaN, which
// no residual arithmetic can undo: the shared non-finite rule ends the
// run in ErrUncorrectable at the first repair, before any re-execution.
func TestSymNonFiniteUncorrectableWithoutReexecution(t *testing.T) {
	a := matrix.RandomSymmetric(100, 7)
	for _, delta := range []float64{math.NaN(), math.Inf(1)} {
		reg := obs.NewRegistry()
		hook := &symPokeHook{iter: 1, row: 70, col: 40, delta: delta}
		_, err := ReduceSym(a, SymOptions{NB: 16, Hook: hook, Obs: reg})
		if !errors.Is(err, ErrUncorrectable) {
			t.Fatalf("delta %v: got %v, want ErrUncorrectable", delta, err)
		}
		if v := reg.CounterValue("ftsym_reexecutions_total"); v != 0 {
			t.Fatalf("delta %v: %v re-executions after a non-finite residual", delta, v)
		}
		if v := reg.CounterValue("ftsym_detections_total"); v != 1 {
			t.Fatalf("delta %v: %v detections, want 1", delta, v)
		}
	}
}
