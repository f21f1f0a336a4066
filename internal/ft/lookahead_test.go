package ft

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/devpool"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/lapack"
	"repro/internal/leakcheck"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// The lookahead schedule reorders when work is issued, never what is
// computed: splitting the trailing updates into a priority part (panel
// k+1's columns) and a remainder applies per-element arithmetic identical
// to the unsplit kernels restricted to disjoint column ranges. The
// property test pins that down as byte identity of the packed result and
// tau across the schedule switch, for both hybrid algorithms, at every
// pool size (0 = the legacy single-device path) and panel width — and
// zero detections on the FT runs, which proves the split Sre/Sce
// checksum maintenance tracked the split data updates exactly (any
// divergence would fire a phantom mismatch at the next boundary sweep).
func TestLookaheadDigestInvariance(t *testing.T) {
	n := 160
	a := matrix.Random(n, n, 41)
	for _, nb := range []int{8, 32} {
		for _, k := range []int{0, 1, 2, 4} {
			pool := func() []*gpu.Device {
				if k == 0 {
					return nil
				}
				return newDevs(k, gpu.Real)
			}
			hOn, err := hybrid.Reduce(a, hybrid.Options{NB: nb, Devices: pool(), Device: single(k)})
			if err != nil {
				t.Fatal(err)
			}
			hOff, err := hybrid.Reduce(a, hybrid.Options{NB: nb, Devices: pool(), Device: single(k), DisableLookahead: true})
			if err != nil {
				t.Fatal(err)
			}
			comparePackedTau(t, "hybrid", nb, k, hOn.Packed, hOff.Packed, hOn.Tau, hOff.Tau)

			fOn, err := Reduce(a, Options{NB: nb, Devices: pool(), Device: single(k)})
			if err != nil {
				t.Fatal(err)
			}
			fOff, err := Reduce(a, Options{NB: nb, Devices: pool(), Device: single(k), DisableLookahead: true})
			if err != nil {
				t.Fatal(err)
			}
			comparePackedTau(t, "ft", nb, k, fOn.Packed, fOff.Packed, fOn.Tau, fOff.Tau)
			if fOn.Detections != 0 || fOff.Detections != 0 {
				t.Fatalf("nb=%d k=%d: phantom detections (lookahead on %d, off %d) — the split checksum algebra drifted",
					nb, k, fOn.Detections, fOff.Detections)
			}
			if !fOn.Packed.Equal(hOn.Packed) {
				t.Fatalf("nb=%d k=%d: FT lookahead result differs from hybrid's", nb, k)
			}
		}
	}
}

// single builds the legacy single-device override for k == 0 (nil
// otherwise, letting the pool drive the run).
func single(k int) *gpu.Device {
	if k != 0 {
		return nil
	}
	return gpu.New(sim.K40c(), gpu.Real)
}

func comparePackedTau(t *testing.T, alg string, nb, k int, pOn, pOff *matrix.Matrix, tOn, tOff []float64) {
	t.Helper()
	if !pOn.Equal(pOff) {
		d := pOn.Sub(pOff).MaxAbs()
		t.Fatalf("%s nb=%d k=%d: packed not byte-identical across the lookahead switch (max |Δ| = %g)", alg, nb, k, d)
	}
	for i := range tOn {
		if tOn[i] != tOff[i] {
			t.Fatalf("%s nb=%d k=%d: tau[%d] = %v with lookahead vs %v without", alg, nb, k, i, tOn[i], tOff[i])
		}
	}
}

// cancelHook cancels the run's context at one iteration boundary — after
// the lookahead split state of the previous iteration has been issued, so
// the unwind crosses a schedule with a factorization in flight.
type cancelHook struct {
	iter   int
	cancel context.CancelFunc
}

func (h *cancelHook) BeforeIteration(ctx *IterCtx) {
	if ctx.Iter == h.iter {
		h.cancel()
	}
}
func (h *cancelHook) ConsumePendingH() int { return 0 }

// Cancelling mid-lookahead must unwind within one blocked iteration,
// leak nothing (run under -race), and leave the pool reusable: the same
// devices then complete a clean reduction whose result is byte-identical
// to one on a fresh pool.
func TestLookaheadMidRunCancellation(t *testing.T) {
	leakcheck.Check(t)
	n, nb := 192, 16
	a := matrix.Random(n, n, 9)

	// Multi-device: cancel at iteration 2, when iteration 1's priority
	// update and hidden panel factorization have already run.
	devs := newDevs(2, gpu.Real)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Reduce(a, Options{NB: nb, Devices: devs, Ctx: ctx, Hook: &cancelHook{iter: 2, cancel: cancel}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("multi: got %v, want context.Canceled", err)
	}
	res, err := Reduce(a, Options{NB: nb, Devices: devs})
	if err != nil {
		t.Fatalf("pool not reusable after cancellation: %v", err)
	}
	fresh, err := Reduce(a, Options{NB: nb, Devices: newDevs(2, gpu.Real)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Packed.Equal(fresh.Packed) {
		t.Fatal("reduction on a cancelled-then-reused pool differs from a fresh pool's")
	}

	// Single-device legacy path: same contract.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	_, err = Reduce(a, Options{NB: nb, Device: single(0), Ctx: ctx2, Hook: &cancelHook{iter: 2, cancel: cancel2}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("single: got %v, want context.Canceled", err)
	}
}

// Corruption landing in columns the lookahead schedule already updated
// early — the priority region [p+nb, p+2nb) maintained through the split
// right/left kernels and the chkrow ride — must be detected at the next
// boundary sweep and corrected in place, exactly like a fault in a
// whole-slab update. Column 40 sits in the priority part of the split
// slab, column 55 in its remainder: both halves of the split algebra are
// exercised. (Geometry: n=192, nb=16, K=2 shards into width-32 slabs;
// iteration 1's panel is at p=16, so its priority region is [32,48) in
// slab 1 while the panel lives in slab 0.)
func TestLookaheadPriorityColumnFaultCorrected(t *testing.T) {
	n, nb, k := 192, 16, 2
	part := devpool.NewPartition(n, nb, k)
	if part.Width != 32 || part.SlabOf(40) != 1 || part.SlabOf(16) != 0 {
		t.Fatalf("partition geometry changed (width %d); re-site the injections", part.Width)
	}
	a := matrix.Random(n, n, 27)
	for _, col := range []int{40, 55} {
		hook := &multiPokeHook{iter: 2, pokes: []Injection{{Row: 120, Col: col, Delta: 2.5}}}
		res, err := Reduce(a, Options{NB: nb, Devices: newDevs(k, gpu.Real), Hook: hook})
		if err != nil {
			t.Fatalf("col %d: %v", col, err)
		}
		if res.Detections == 0 || res.Recoveries == 0 {
			t.Fatalf("col %d: fault in a priority-updated column not handled: %+v", col, res)
		}
		if res.Checkpoints != 0 || res.Reexecutions != 0 {
			t.Fatalf("col %d: recovery was not in-place: %d checkpoints, %d re-executions",
				col, res.Checkpoints, res.Reexecutions)
		}
		if len(res.CorrectedH) != 1 {
			t.Fatalf("col %d: corrected %d positions", col, len(res.CorrectedH))
		}
		c := res.CorrectedH[0]
		if c.Row != 120 || c.Col != col || math.Abs(c.Delta-2.5) > 1e-6 {
			t.Fatalf("col %d: wrong correction %+v", col, c)
		}
		h := res.H()
		q := res.Q()
		if r := lapack.FactorizationResidual(a, q, h); r > 1e-13 {
			t.Fatalf("col %d: residual after recovery %v", col, r)
		}
	}
}
