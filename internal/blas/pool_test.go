package blas

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/matrix"
)

func TestSetMaxProcsClampAndReturn(t *testing.T) {
	orig := SetMaxProcs(3)
	defer SetMaxProcs(orig)
	if got := SetMaxProcs(0); got != 3 {
		t.Fatalf("SetMaxProcs(0) returned %d, want previous value 3", got)
	}
	// n < 1 clamps to 1.
	if got := procs(); got != 1 {
		t.Fatalf("procs() = %d after SetMaxProcs(0), want 1", got)
	}
}

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	orig := SetMaxProcs(8)
	defer SetMaxProcs(orig)
	const n = 1000
	var counts [n]atomic.Int32
	ParallelFor(n, func(i int) {
		counts[i].Add(1)
	})
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times, want exactly once", i, got)
		}
	}
}

func TestParallelForSerialWhenPinned(t *testing.T) {
	orig := SetMaxProcs(1)
	defer SetMaxProcs(orig)
	var order []int
	ParallelFor(5, func(i int) {
		order = append(order, i) // no lock: must be the caller's goroutine
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("pinned ParallelFor visited %v, want ascending order", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("pinned ParallelFor ran %d indices, want 5", len(order))
	}
}

// TestParallelForConcurrentShards proves p independent shard runners really
// run concurrently: every shard blocks until all p have started, which can
// only resolve if the pool actually supplies p-1 workers alongside the
// caller.
func TestParallelForConcurrentShards(t *testing.T) {
	const p = 4
	orig := SetMaxProcs(p)
	defer SetMaxProcs(orig)
	var barrier sync.WaitGroup
	barrier.Add(p)
	done := make(chan struct{})
	go func() {
		ParallelFor(p, func(i int) {
			barrier.Done()
			barrier.Wait()
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ParallelFor deadlocked: fewer than p concurrent shard runners")
	}
}

// TestParallelForNestedDoesNotDeadlock exercises the caller-runs fallback:
// nested ParallelFor calls from inside shards must complete even when every
// pool worker is already busy.
func TestParallelForNestedDoesNotDeadlock(t *testing.T) {
	orig := SetMaxProcs(4)
	defer SetMaxProcs(orig)
	var total atomic.Int64
	done := make(chan struct{})
	go func() {
		ParallelFor(8, func(i int) {
			ParallelFor(8, func(j int) {
				total.Add(1)
			})
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested ParallelFor deadlocked")
	}
	if got := total.Load(); got != 64 {
		t.Fatalf("nested ParallelFor ran %d inner bodies, want 64", got)
	}
}

// TestDgemmTallSkinnyPanelShards is the regression test for the tall-skinny
// panel update (m=4096, n=8, k=128) — the shape the blocked Hessenberg
// reduction hits on every trailing-panel update. The pre-blocking Dgemm
// sharded only over columns (chunks = min(p, n)), so with p workers and
// n = 8 columns at most 8 cores could ever engage. The blocked nest must
// expose parallelism in the m dimension as well.
func TestDgemmTallSkinnyPanelShards(t *testing.T) {
	const m, n, k = 4096, 8, 128
	const p = 16

	// The shape must qualify for the parallel path at the production
	// threshold, not just under a test override.
	if flops := 2 * m * n * k; flops < parallelGemmThreshold {
		t.Fatalf("tall-skinny panel flops %d below parallelGemmThreshold %d: shape would stay serial", flops, parallelGemmThreshold)
	}

	// Structural assertion: a round of the loop nest must offer at least p
	// work items where the pre-blocking column sharding offered only
	// min(p, n) = 8.
	g := newGemmGrid(m, n, k)
	tasks := g.mBlocks * g.ranges(n)
	if prev := min(p, n); tasks <= prev {
		t.Fatalf("a round exposes %d work items, no better than the pre-blocking %d column chunks", tasks, prev)
	}
	if tasks < p {
		t.Fatalf("a round exposes %d work items for %d workers: cores would idle", tasks, p)
	}

	// Behavioral assertion: the parallel result is bitwise identical to the
	// serial one on this shape.
	a := matrix.Random(m, k, 11)
	b := matrix.Random(k, n, 12)
	want := matrix.Random(m, n, 13)
	got := want.Clone()

	orig := SetMaxProcs(1)
	defer SetMaxProcs(orig)
	Dgemm(NoTrans, NoTrans, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, -0.5, want.Data, want.Stride)
	SetMaxProcs(p)
	Dgemm(NoTrans, NoTrans, m, n, k, 1.5, a.Data, a.Stride, b.Data, b.Stride, -0.5, got.Data, got.Stride)
	if !want.Equal(got) {
		t.Fatal("parallel tall-skinny Dgemm differs bitwise from serial")
	}
}

// TestParallelFusedRoutinesMatchSerialBitwise extends the determinism
// contract to the fused-ABFT substrate: DgemmFT output, its checksum
// report, and the DMR level-2 wrappers must reproduce the serial result
// bit for bit at any SetMaxProcs — the checksum accumulators are per-tile
// state reduced in slot order, never shared across workers.
func TestParallelFusedRoutinesMatchSerialBitwise(t *testing.T) {
	origProcs := SetMaxProcs(1)
	origGemm, origL2 := parallelGemmThreshold, parallelL2Threshold
	defer func() {
		SetMaxProcs(origProcs)
		parallelGemmThreshold, parallelL2Threshold = origGemm, origL2
	}()

	const m, n, k = 67, 45, 31
	a := matrix.Random(m, k, 41)
	b := matrix.Random(k, n, 42)
	x := matrix.Random(k, 1, 43)
	xg := matrix.Random(n, 1, 44)
	yv := matrix.Random(m, 1, 45)

	type result struct {
		gemm, ger *matrix.Matrix
		gemv      []float64
		rep       FTResult
	}
	run := func() result {
		var r result
		var err error
		r.gemm = matrix.Random(m, n, 46)
		r.rep, err = DgemmFT(NoTrans, NoTrans, m, n, k, 1.1, a.Data, a.Stride, b.Data, b.Stride, 0.3, r.gemm.Data, r.gemm.Stride)
		if err != nil {
			t.Fatalf("DgemmFT false positive: %v", err)
		}
		r.gemv = make([]float64, m)
		for i := range r.gemv {
			r.gemv[i] = float64(i)
		}
		if _, err = DgemvFT(NoTrans, m, k, 1.2, a.Data, a.Stride, x.Data, 1, 0.7, r.gemv, 1); err != nil {
			t.Fatalf("DgemvFT false positive: %v", err)
		}
		r.ger = matrix.Random(m, n, 47)
		if _, err = DgerFT(m, n, -0.4, yv.Data, 1, xg.Data, 1, r.ger.Data, r.ger.Stride); err != nil {
			t.Fatalf("DgerFT false positive: %v", err)
		}
		return r
	}

	serial := run()

	for _, p := range []int{2, 5, 9} {
		SetMaxProcs(p)
		parallelGemmThreshold, parallelL2Threshold = 1, 1
		par := run()
		if !serial.gemm.Equal(par.gemm) {
			t.Errorf("procs=%d: parallel DgemmFT differs bitwise from serial", p)
		}
		if serial.rep != par.rep {
			t.Errorf("procs=%d: DgemmFT report %+v differs from serial %+v", p, par.rep, serial.rep)
		}
		for i := range serial.gemv {
			if serial.gemv[i] != par.gemv[i] {
				t.Fatalf("procs=%d: parallel DgemvFT differs bitwise at %d", p, i)
			}
		}
		if !serial.ger.Equal(par.ger) {
			t.Errorf("procs=%d: parallel DgerFT differs bitwise from serial", p)
		}
	}
}

// TestParallelRoutinesMatchSerialBitwise pins the determinism contract for
// every routine that dispatches onto the pool: forcing the parallel path at
// tiny sizes must reproduce the serial result bit for bit.
func TestParallelRoutinesMatchSerialBitwise(t *testing.T) {
	origProcs := SetMaxProcs(1)
	origGemm, origTrmm := parallelGemmThreshold, parallelTrmmThreshold
	origL2, origSyr2k := parallelL2Threshold, parallelSyr2kThreshold
	defer func() {
		SetMaxProcs(origProcs)
		parallelGemmThreshold, parallelTrmmThreshold = origGemm, origTrmm
		parallelL2Threshold, parallelSyr2kThreshold = origL2, origSyr2k
	}()

	const m, n, k = 67, 45, 31
	a := matrix.Random(m, k, 21)
	b := matrix.Random(k, n, 22)
	tri := matrix.Random(n, n, 23)
	x := matrix.Random(k, 1, 24)
	y := matrix.Random(m, 1, 25)
	sa := matrix.Random(n, k, 26)
	sb := matrix.Random(n, k, 27)
	yg := matrix.Random(n, 1, 28)

	type result struct {
		gemm, trmm, ger, symm *matrix.Matrix
		gemv                  []float64
	}
	run := func() result {
		var r result
		r.gemm = matrix.Random(m, n, 31)
		Dgemm(NoTrans, Trans, m, n, k, 1.1, a.Data, a.Stride, b.T().Data, b.T().Stride, 0.3, r.gemm.Data, r.gemm.Stride)
		r.trmm = matrix.Random(m, n, 32)
		Dtrmm(Right, Upper, NoTrans, NonUnit, m, n, 0.9, tri.Data, tri.Stride, r.trmm.Data, r.trmm.Stride)
		r.gemv = make([]float64, m)
		for i := range r.gemv {
			r.gemv[i] = float64(i)
		}
		Dgemv(NoTrans, m, k, 1.2, a.Data, a.Stride, x.Data, 1, 0.7, r.gemv, 1)
		r.ger = matrix.Random(m, n, 33)
		Dger(m, n, -0.4, y.Data, 1, yg.Data, 1, r.ger.Data, r.ger.Stride)
		r.symm = matrix.Random(n, n, 34)
		Dsyr2k(Lower, NoTrans, n, k, 0.8, sa.Data, sa.Stride, sb.Data, sb.Stride, 0.6, r.symm.Data, r.symm.Stride)
		return r
	}

	serial := run()

	SetMaxProcs(7)
	parallelGemmThreshold, parallelTrmmThreshold = 1, 1
	parallelL2Threshold, parallelSyr2kThreshold = 1, 1
	par := run()

	if !serial.gemm.Equal(par.gemm) {
		t.Error("parallel Dgemm differs bitwise from serial")
	}
	if !serial.trmm.Equal(par.trmm) {
		t.Error("parallel Dtrmm differs bitwise from serial")
	}
	for i := range serial.gemv {
		if serial.gemv[i] != par.gemv[i] {
			t.Fatalf("parallel Dgemv differs bitwise from serial at %d", i)
		}
	}
	if !serial.ger.Equal(par.ger) {
		t.Error("parallel Dger differs bitwise from serial")
	}
	if !serial.symm.Equal(par.symm) {
		t.Error("parallel Dsyr2k differs bitwise from serial")
	}
}
