package ft

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

func newDev() *gpu.Device { return gpu.New(sim.K40c(), gpu.Real) }

func TestFaultFreeMatchesBaselineAcrossSizes(t *testing.T) {
	for _, tc := range []struct{ n, nb int }{
		{40, 8}, {64, 16}, {100, 16}, {158, 32}, {200, 32},
	} {
		a := matrix.Random(tc.n, tc.n, uint64(tc.n))
		res, err := Reduce(a, Options{NB: tc.nb, Device: newDev()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Detections != 0 || res.Recoveries != 0 || res.QCorrections != 0 {
			t.Fatalf("n=%d: phantom resilience events: %+v", tc.n, res)
		}
		ref, err := hybrid.Reduce(a, hybrid.Options{NB: tc.nb, Device: newDev()})
		if err != nil {
			t.Fatal(err)
		}
		if d := res.Packed.Sub(ref.Packed).MaxAbs(); d > 1e-11 {
			t.Fatalf("n=%d nb=%d: FT differs from baseline by %v", tc.n, tc.nb, d)
		}
	}
}

func TestFaultFreeResiduals(t *testing.T) {
	n := 150
	a := matrix.Random(n, n, 5)
	res, err := Reduce(a, Options{NB: 32, Device: newDev()})
	if err != nil {
		t.Fatal(err)
	}
	h := res.H()
	q := res.Q()
	if !h.IsUpperHessenberg(0) {
		t.Fatal("not Hessenberg")
	}
	if r := lapack.FactorizationResidual(a, q, h); r > 1e-14 {
		t.Fatalf("residual %v", r)
	}
	if r := lapack.OrthogonalityResidual(q); r > 1e-13 {
		t.Fatalf("orthogonality %v", r)
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := Reduce(matrix.New(3, 4), Options{Device: newDev()}); err == nil {
		t.Fatal("non-square accepted")
	}
	if _, err := Reduce(matrix.New(3, 3), Options{}); err == nil {
		t.Fatal("nil device accepted")
	}
}

func TestTinyMatrices(t *testing.T) {
	for n := 0; n <= 5; n++ {
		a := matrix.Random(n, n, uint64(n))
		res, err := Reduce(a, Options{NB: 4, Device: newDev()})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n >= 1 {
			if r := lapack.FactorizationResidual(a, res.Q(), res.H()); r > 1e-13 {
				t.Fatalf("n=%d: residual %v", n, r)
			}
		}
	}
}

// checksumAuditHook verifies Theorem 1 at every iteration boundary: the
// maintained checksum column/row must match freshly computed mathematical
// sums (Hessenberg-aware in the finished columns).
type checksumAuditHook struct {
	t        *testing.T
	failures int
	checked  int
	tol      float64
}

func (h *checksumAuditHook) BeforeIteration(ctx *IterCtx) {
	n := ctx.N
	split := ctx.Panel // columns left of the upcoming panel are finished
	for i := 0; i < n; i++ {
		fresh := 0.0
		for j := 0; j < n; j++ {
			top := n - 1
			if j < split {
				top = min(j+1, n-1)
			}
			if i <= top {
				fresh += ctx.DA.At(i, j)
			}
		}
		if math.Abs(fresh-ctx.DA.At(i, n)) > h.tol {
			h.failures++
			h.t.Errorf("iter %d: row checksum %d drifted: fresh %v vs maintained %v",
				ctx.Iter, i, fresh, ctx.DA.At(i, n))
			return
		}
	}
	for j := 0; j < n; j++ {
		top := n - 1
		if j < split {
			top = min(j+1, n-1)
		}
		fresh := 0.0
		for i := 0; i <= top; i++ {
			fresh += ctx.DA.At(i, j)
		}
		if math.Abs(fresh-ctx.DA.At(n, j)) > h.tol {
			h.failures++
			h.t.Errorf("iter %d: column checksum %d drifted: fresh %v vs maintained %v",
				ctx.Iter, j, fresh, ctx.DA.At(n, j))
			return
		}
	}
	h.checked++
}

func (h *checksumAuditHook) ConsumePendingH() int { return 0 }

func TestTheorem1ChecksumInvariant(t *testing.T) {
	// The paper's Theorem 1: the checksum column and row are valid at the
	// end of each iteration (checked here at the next iteration's start).
	n := 158
	a := matrix.Random(n, n, 7)
	hook := &checksumAuditHook{t: t, tol: 1e-9}
	if _, err := Reduce(a, Options{NB: 32, Device: newDev(), Hook: hook}); err != nil {
		t.Fatal(err)
	}
	if hook.checked < 2 {
		t.Fatalf("audit ran on %d iterations only", hook.checked)
	}
	if hook.failures > 0 {
		t.Fatalf("checksum invariant violated %d times", hook.failures)
	}
}

// pokeHook injects explicit device pokes at one iteration boundary.
type pokeHook struct {
	iter    int
	pokes   []Injection
	pending int
	fired   bool
}

func (h *pokeHook) BeforeIteration(ctx *IterCtx) {
	if ctx.Iter != h.iter || h.fired {
		return
	}
	h.fired = true
	for _, p := range h.pokes {
		ctx.Dev.Poke(ctx.DA, p.Row, p.Col, p.Delta)
		h.pending++
	}
}
func (h *pokeHook) ConsumePendingH() int { c := h.pending; h.pending = 0; return c }

func TestCorrectedPositionsReported(t *testing.T) {
	n := 126
	a := matrix.Random(n, n, 4)
	hook := &pokeHook{iter: 1, pokes: []Injection{{Row: 70, Col: 90, Delta: 3.5}}}
	res, err := Reduce(a, Options{NB: 16, Device: newDev(), Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CorrectedH) != 1 {
		t.Fatalf("corrected %d positions", len(res.CorrectedH))
	}
	c := res.CorrectedH[0]
	if c.Row != 70 || c.Col != 90 || math.Abs(c.Delta-3.5) > 1e-6 {
		t.Fatalf("wrong correction: %+v", c)
	}
}

func TestErrorInPanelColumnRecovered(t *testing.T) {
	// Corrupt the panel that is about to be factorized: recovery must
	// patch the diskless checkpoint too, or the re-execution reproduces
	// the error. Exercises the checkpoint-patch path and the Q-checksum
	// re-absorption.
	n, nb := 158, 32
	a := matrix.Random(n, n, 6)
	// Panel of iteration 1 starts at column 32; row below the diagonal.
	hook := &pokeHook{iter: 1, pokes: []Injection{{Row: 100, Col: 40, Delta: 2.0}}}
	res, err := Reduce(a, Options{NB: nb, Device: newDev(), Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries == 0 {
		t.Fatal("panel error not recovered")
	}
	if r := lapack.FactorizationResidual(a, res.Q(), res.H()); r > 1e-13 {
		t.Fatalf("residual %v", r)
	}
}

func TestChecksumElementErrorRepaired(t *testing.T) {
	// Corrupt the checksum column itself: detection fires, location sees
	// a row flag with no column flag, and the maintained checksum is
	// refreshed from the data.
	n := 126
	a := matrix.Random(n, n, 8)
	hook := &pokeHook{iter: 1, pokes: []Injection{{Row: 60, Col: n, Delta: 5}}}
	res, err := Reduce(a, Options{NB: 16, Device: newDev(), Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == 0 {
		t.Fatal("checksum corruption not detected")
	}
	if len(res.CorrectedH) != 0 {
		t.Fatalf("data corrections %v for a checksum-only error", res.CorrectedH)
	}
	if r := lapack.FactorizationResidual(a, res.Q(), res.H()); r > 1e-13 {
		t.Fatalf("residual %v", r)
	}
}

func TestAmbiguousPatternRejected(t *testing.T) {
	// Two simultaneous errors with identical magnitude in distinct rows
	// and columns cannot be attributed (any matching explains the
	// residuals); the algorithm must refuse rather than mis-correct.
	n := 126
	a := matrix.Random(n, n, 9)
	hook := &pokeHook{iter: 1, pokes: []Injection{
		{Row: 60, Col: 80, Delta: 2.0},
		{Row: 70, Col: 90, Delta: 2.0},
	}}
	_, err := Reduce(a, Options{NB: 16, Device: newDev(), Hook: hook})
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("expected ErrUncorrectable, got %v", err)
	}
}

func TestNonFiniteCorruptionNeverSilent(t *testing.T) {
	// An exponent-bit flip can turn an element into ±Inf or NaN, driving
	// both checksum totals non-finite — where |Sre−Sce| = NaN compares
	// false against every τ and the unguarded detector goes blind. The
	// pollution is irreversible (Inf−Inf = NaN defeats reverse
	// computation), so the contract is: detect and refuse, never return a
	// silently corrupted factorization. Found by a cmd/campaign sweep.
	n := 126
	for _, delta := range []float64{math.Inf(1), math.NaN()} {
		a := matrix.Random(n, n, 12)
		hook := &pokeHook{iter: 1, pokes: []Injection{{Row: 80, Col: 70, Delta: delta}}}
		res, err := Reduce(a, Options{NB: 16, Device: newDev(), Hook: hook})
		if err == nil {
			r := lapack.FactorizationResidual(a, res.Q(), res.H())
			t.Fatalf("delta %v: non-finite corruption returned without error (residual %v)", delta, r)
		}
		if !errors.Is(err, ErrUncorrectable) && !errors.Is(err, ErrDetectionStorm) {
			t.Fatalf("delta %v: unexpected error %v", delta, err)
		}
		if res.Detections == 0 {
			t.Fatalf("delta %v: detector stayed blind", delta)
		}
	}
}

// A non-finite residual is uncorrectable at once: no residual arithmetic
// recovers a value an exponent hit drove to ±Inf or NaN, so re-executing
// the iteration cannot help.
func TestNonFiniteResidualUncorrectableWithoutReexecution(t *testing.T) {
	a := matrix.Random(126, 126, 12)
	for _, delta := range []float64{math.Inf(1), math.NaN()} {
		hook := &pokeHook{iter: 1, pokes: []Injection{{Row: 80, Col: 70, Delta: delta}}}
		res, err := Reduce(a, Options{NB: 16, Device: newDev(), Hook: hook})
		if !errors.Is(err, ErrUncorrectable) {
			t.Fatalf("delta %v: err %v, want ErrUncorrectable", delta, err)
		}
		if res.Reexecutions != 0 {
			t.Fatalf("delta %v: %d re-executions after a non-finite residual", delta, res.Reexecutions)
		}
	}
}

// stormHook always reports a pending error (cost-only), forcing endless
// detection.
type stormHook struct{}

func (stormHook) BeforeIteration(*IterCtx) {}
func (stormHook) ConsumePendingH() int     { return 1 }

func TestDetectionStormBails(t *testing.T) {
	a := matrix.New(126, 126)
	_, err := Reduce(a, Options{NB: 16, Device: gpu.New(sim.K40c(), gpu.CostOnly), Hook: stormHook{}})
	if !errors.Is(err, ErrDetectionStorm) {
		t.Fatalf("expected ErrDetectionStorm, got %v", err)
	}
}

// A run that ends in ErrDetectionStorm has still recovered: the Result
// tallies each recovery where ft_recoveries_total counts it.
func TestDetectionStormTalliesRecoveries(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := Reduce(matrix.Shape(128, 128), Options{NB: 16, Device: gpu.New(sim.K40c(), gpu.CostOnly), Hook: stormHook{}, Obs: reg})
	if !errors.Is(err, ErrDetectionStorm) {
		t.Fatalf("expected ErrDetectionStorm, got %v", err)
	}
	counted := reg.CounterValue("ft_recoveries_total")
	if counted != maxRecoveries || float64(res.Recoveries) != counted {
		t.Fatalf("Result.Recoveries %d, ft_recoveries_total %v; want both %d", res.Recoveries, counted, maxRecoveries)
	}
}

func TestFinalHCheckCatchesLateError(t *testing.T) {
	// Corrupt already-finished H data on the device (upper triangle of a
	// finished column): the per-iteration Sre/Sce comparison is blind to
	// finished regions, but the optional final sweep catches it.
	n, nb := 158, 32
	a := matrix.Random(n, n, 10)
	hook := &pokeHook{iter: 3, pokes: []Injection{{Row: 5, Col: 20, Delta: 4}}}
	res, err := Reduce(a, Options{NB: nb, Device: newDev(), Hook: hook, FinalHCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range res.CorrectedH {
		if c.Row == 5 && c.Col == 20 {
			found = true
		}
	}
	if !found {
		t.Fatalf("final H check missed the late error: %+v", res.CorrectedH)
	}
	if r := lapack.FactorizationResidual(a, res.Q(), res.H()); r > 1e-13 {
		t.Fatalf("residual %v", r)
	}
}

// A cost-only run has no data to locate with, so the final H check
// compares nothing: with nothing injected it must model no repair.
func TestCostOnlyFinalHCheckRecordsNoCorrection(t *testing.T) {
	j, reg := &obs.Journal{}, obs.NewRegistry()
	_, err := Reduce(matrix.Shape(256, 256), Options{
		NB: 32, Device: gpu.New(sim.K40c(), gpu.CostOnly), FinalHCheck: true, Journal: j, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := j.Counts()
	if counts[obs.KindCorrection] != 0 || counts[obs.KindLocation] != 0 {
		t.Fatalf("clean cost-only run journals %d corrections, %d locations", counts[obs.KindCorrection], counts[obs.KindLocation])
	}
	if v := reg.CounterValue("ft_corrections_total"); v != 0 {
		t.Fatalf("ft_corrections_total = %v on a clean cost-only run", v)
	}
}

// An exponent flip in finished H leaves a delta so large that
// subtracting it cancels the element's true value: the final H check
// must re-check its correction, locate the cancellation, and restore
// the element instead of handing back silently corrupted data.
func TestFinalHCheckRechecksExponentFlip(t *testing.T) {
	a := matrix.Random(96, 96, 5)
	hook := funcHook{before: func(ctx *IterCtx) {
		if ctx.Iter == 2 {
			ctx.FlipBitH(1, 0, 61)
		}
	}}
	res, err := Reduce(a, Options{NB: 16, Device: newDev(), Hook: hook, FinalHCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if r := lapack.FactorizationResidual(a, res.Q(), res.H()); r > 1e-13 {
		t.Fatalf("residual %v after %d correction(s) %+v: silent corruption", r, len(res.CorrectedH), res.CorrectedH)
	}
	if res.Detections == 0 {
		t.Fatal("the re-check's mismatch was not counted as a detection")
	}
}

func TestOverheadIsSmall(t *testing.T) {
	// The headline claim: FT overhead under a few percent of the baseline
	// in simulated time, shrinking as N grows (O(N⁻¹) extra work).
	overhead := func(n int) float64 {
		a := matrix.New(n, n)
		base, err := hybrid.Reduce(a, hybrid.Options{NB: 32, Device: gpu.New(sim.K40c(), gpu.CostOnly)})
		if err != nil {
			t.Fatal(err)
		}
		ftRes, err := Reduce(a, Options{NB: 32, Device: gpu.New(sim.K40c(), gpu.CostOnly)})
		if err != nil {
			t.Fatal(err)
		}
		return (ftRes.SimSeconds - base.SimSeconds) / base.SimSeconds
	}
	small := overhead(1022)
	large := overhead(4030)
	if small < 0 {
		t.Fatalf("FT faster than baseline? overhead %v", small)
	}
	if large >= small {
		t.Fatalf("overhead must shrink with N: %.4f (1022) vs %.4f (4030)", small, large)
	}
	if large > 0.10 {
		t.Fatalf("overhead at N=4030 too large: %.2f%%", 100*large)
	}
}

func TestDisableQProtectionLeavesErrorIn(t *testing.T) {
	n, nb := 158, 32
	a := matrix.Random(n, n, 11)
	clean, err := Reduce(a, Options{NB: nb, Device: newDev()})
	if err != nil {
		t.Fatal(err)
	}
	// Inject into host V storage through a hook.
	inject := func(ctx *IterCtx) {
		if ctx.Iter == 2 {
			ctx.Host.Add(50, 10, 1.0)
		}
	}
	res, err := Reduce(a, Options{NB: nb, Device: newDev(), DisableQProtection: true,
		Hook: funcHook{before: inject}})
	if err != nil {
		t.Fatal(err)
	}
	if d := clean.Packed.Sub(res.Packed).MaxAbs(); d < 0.5 {
		t.Fatalf("Q error should survive with protection disabled, diff %v", d)
	}
}

// funcHook adapts plain functions to the Hook interface.
type funcHook struct {
	before func(*IterCtx)
}

func (f funcHook) BeforeIteration(ctx *IterCtx) {
	if f.before != nil {
		f.before(ctx)
	}
}
func (funcHook) ConsumePendingH() int { return 0 }

// Property: for random sizes and block sizes, the fault-free FT reduction
// is numerically indistinguishable from the plain LAPACK reduction.
func TestPropFaultFreeEqualsLAPACK(t *testing.T) {
	f := func(seed uint64) bool {
		n := 20 + int(seed%60)
		nb := 4 + int((seed>>8)%12)
		a := matrix.RandomNormal(n, n, seed)
		res, err := Reduce(a, Options{NB: nb, Device: newDev()})
		if err != nil || res.Detections != 0 {
			return false
		}
		packed := a.Clone()
		tau := make([]float64, max(n-1, 1))
		lapack.Dgehrd(n, nb, packed.Data, packed.Stride, tau)
		return res.Packed.Sub(packed).MaxAbs() < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: a single off-diagonal error injected anywhere in the trailing
// matrix at any iteration is recovered and the result matches machine
// precision.
func TestPropSingleErrorAlwaysRecovered(t *testing.T) {
	f := func(seed uint64) bool {
		n, nb := 126, 16
		a := matrix.RandomNormal(n, n, seed)
		rng := matrix.NewRNG(seed)
		iter := rng.Intn(4)
		p := iter * nb
		row := p + 1 + rng.Intn(n-p-1)
		col := p + rng.Intn(n-p)
		if row == col {
			col = (col + 1) % n
			if col < p {
				col = p
			}
			if row == col {
				return true // skip degenerate draw
			}
		}
		delta := 0.5 + rng.Float64()*10
		hook := &pokeHook{iter: iter, pokes: []Injection{{Row: row, Col: col, Delta: delta}}}
		res, err := Reduce(a, Options{NB: nb, Device: newDev(), Hook: hook})
		if err != nil {
			t.Logf("seed %d (%d,%d)@%d: %v", seed, row, col, iter, err)
			return false
		}
		if res.Detections == 0 {
			t.Logf("seed %d (%d,%d)@%d: not detected", seed, row, col, iter)
			return false
		}
		r := lapack.FactorizationResidual(a, res.Q(), res.H())
		if r > 1e-13 {
			t.Logf("seed %d: residual %v", seed, r)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestPostProcessComparatorRecovers(t *testing.T) {
	// The prior-work comparator: detection only at the end, recovery by
	// full re-execution. The result must still be correct, at much higher
	// recovery cost (asserted in TestPostProcessCostsMore).
	n, nb := 158, 32
	a := matrix.Random(n, n, 13)
	hook := &pokeHook{iter: 1, pokes: []Injection{{Row: 80, Col: 100, Delta: 2}}}
	reg := obs.NewRegistry()
	res, err := Reduce(a, Options{NB: nb, Device: newDev(), Hook: hook, PostProcess: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections == 0 || res.Recoveries == 0 {
		t.Fatalf("post-process comparator missed the fault: %+v", res)
	}
	if v := reg.CounterValue("ft_recoveries_total"); v != float64(res.Recoveries) {
		t.Fatalf("ft_recoveries_total %v, Result.Recoveries %d", v, res.Recoveries)
	}
	if r := lapack.FactorizationResidual(a, res.Q(), res.H()); r > 1e-13 {
		t.Fatalf("residual %v", r)
	}
}

func TestPostProcessCostsMore(t *testing.T) {
	// The paper's motivation for per-iteration detection: recovering at
	// the end costs a whole factorization, recovering per iteration costs
	// one iteration. Compare simulated times in cost-only mode.
	n, nb := 2046, 32
	a := matrix.New(n, n)
	mk := func(post bool) float64 {
		hook := &stormOnceHook{}
		res, err := Reduce(a, Options{NB: nb, Device: gpu.New(sim.K40c(), gpu.CostOnly), Hook: hook, PostProcess: post})
		if err != nil {
			t.Fatal(err)
		}
		if res.Detections == 0 {
			t.Fatal("fault not detected")
		}
		return res.SimSeconds
	}
	perIter := mk(false)
	post := mk(true)
	if post < 1.5*perIter {
		t.Fatalf("post-processing recovery should cost far more: %.4fs vs %.4fs", post, perIter)
	}
}

// The comparator's retry re-executes on the same device after the first
// attempt has collected its fused-substrate checks, so each attempt's
// checks count once: the Result and the ft_substrate_checks_total
// counter agree, and both exceed a clean run's count.
func TestPostProcessRetryCountsSubstrateChecksOnce(t *testing.T) {
	n, nb := 128, 16
	a := matrix.Random(n, n, 5)
	clean, err := Reduce(a, Options{NB: nb, Device: newDev(), Substrate: SubstrateFused})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	hook := &pokeHook{iter: 2, pokes: []Injection{{Row: 90, Col: 70, Delta: 2}}}
	res, err := Reduce(a, Options{NB: nb, Device: newDev(), Hook: hook, PostProcess: true, Substrate: SubstrateFused, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("%d recoveries, want the one re-execution", res.Recoveries)
	}
	counted := reg.CounterValue("ft_substrate_checks_total")
	if int(counted) != res.SubstrateChecks {
		t.Fatalf("ft_substrate_checks_total = %v, Result.SubstrateChecks = %d", counted, res.SubstrateChecks)
	}
	if res.SubstrateChecks <= clean.SubstrateChecks {
		t.Fatalf("%d substrate checks over two attempts, a clean run alone makes %d", res.SubstrateChecks, clean.SubstrateChecks)
	}
	if r := lapack.FactorizationResidual(a, res.Q(), res.H()); r > 1e-13 {
		t.Fatalf("residual %v", r)
	}
}

// The comparator runs on the single-device schedule only.
func TestPostProcessRejectsDevices(t *testing.T) {
	a := matrix.Random(64, 64, 3)
	if _, err := Reduce(a, Options{NB: 16, Devices: newDevs(2, gpu.Real), PostProcess: true}); err == nil {
		t.Fatal("PostProcess with Devices must be rejected")
	}
}

// stormOnceHook reports exactly one pending H error (cost-only driver).
type stormOnceHook struct{ consumed bool }

func (h *stormOnceHook) BeforeIteration(*IterCtx) {}
func (h *stormOnceHook) ConsumePendingH() int {
	if h.consumed {
		return 0
	}
	h.consumed = true
	return 1
}
