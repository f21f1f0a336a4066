package blas

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/matrix"
)

// Kernel-equivalence + injection harness for the fused-ABFT substrate.
//
// Equivalence: DgemmFT must be bitwise-identical to Dgemm — not close,
// identical — because every digest-invariance guarantee in the repo
// (K=1 vs K=2, lookahead on/off, fail-stop recovery) rests on the BLAS
// layer being deterministic. The fused checksum work must therefore be a
// pure side computation.
//
// Injection: a planted bit flip in a packed panel or the accumulated C
// tile must be caught by the epilogue verify, across mantissa, exponent,
// and sign bits; non-finite totals must surface as NonFinite detections,
// never silence (the PR 3 exponent-bit lesson).

// checkFusedMatchesPlain runs one (shape, transpose) case through both
// kernels and requires bitwise-equal C and a clean report.
func checkFusedMatchesPlain(t *testing.T, tA, tB Transpose, m, n, k int) {
	t.Helper()
	const alpha, beta = 1.3, -0.7
	ar, ac := m, k
	if tA == Trans {
		ar, ac = k, m
	}
	br, bc := k, n
	if tB == Trans {
		br, bc = n, k
	}
	seed := uint64(m*2000003 + n*2011 + k*17)
	a := matrix.Random(ar, ac, seed)
	b := matrix.Random(br, bc, seed+1)
	c0 := matrix.Random(m, n, seed+2)

	want := c0.Clone()
	Dgemm(tA, tB, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, want.Data, want.Stride)
	got := c0.Clone()
	res, err := DgemmFT(tA, tB, m, n, k, alpha, a.Data, a.Stride, b.Data, b.Stride, beta, got.Data, got.Stride)
	if err != nil {
		t.Fatalf("DgemmFT(%v,%v) m=%d n=%d k=%d: false positive: %v (res %+v)", tA, tB, m, n, k, err, res)
	}
	if res.Checks == 0 {
		t.Fatalf("DgemmFT(%v,%v) m=%d n=%d k=%d: ran zero checks", tA, tB, m, n, k)
	}
	if !want.Equal(got) {
		t.Fatalf("DgemmFT(%v,%v) m=%d n=%d k=%d differs bitwise from Dgemm", tA, tB, m, n, k)
	}
}

func runFusedProperty(t *testing.T, shapes [][3]int) {
	for _, tA := range []Transpose{NoTrans, Trans} {
		for _, tB := range []Transpose{NoTrans, Trans} {
			for _, s := range shapes {
				checkFusedMatchesPlain(t, tA, tB, s[0], s[1], s[2])
			}
		}
	}
}

// TestDgemmPropertyFusedBitwise: the fused-ABFT kernel is bitwise-equal
// to plain Dgemm over the odd/prime size grid and the cache-block
// boundary shapes, on the serial and forced-pool paths, under both
// micro-kernel implementations.
func TestDgemmPropertyFusedBitwise(t *testing.T) {
	var shapes [][3]int
	for _, m := range propSizes {
		for _, n := range propSizes {
			for _, k := range propSizes {
				shapes = append(shapes, [3]int{m, n, k})
			}
		}
	}
	shapes = append(shapes, propEdgeShapes...)
	gemmPropConfigs(t, func(t *testing.T) { runFusedProperty(t, shapes) })
}

// TestDgemmPropertyFusedReportDeterministic: the FTResult itself — not
// just C — must be identical at every SetMaxProcs value, since the ft
// layer journals its counts.
func TestDgemmPropertyFusedReportDeterministic(t *testing.T) {
	const m, n, k = gemmMC + 37, gemmNC + 11, 2*gemmKC + 5
	a := matrix.Random(m, k, 61)
	b := matrix.Random(k, n, 62)
	c0 := matrix.Random(m, n, 63)

	origProcs := SetMaxProcs(1)
	origThresh := parallelGemmThreshold
	defer func() {
		SetMaxProcs(origProcs)
		parallelGemmThreshold = origThresh
	}()
	parallelGemmThreshold = 1

	var base FTResult
	var baseC *matrix.Matrix
	for _, p := range []int{1, 2, 3, 7, 16} {
		SetMaxProcs(p)
		got := c0.Clone()
		res, err := DgemmFT(NoTrans, NoTrans, m, n, k, 1.1, a.Data, a.Stride, b.Data, b.Stride, 0.4, got.Data, got.Stride)
		if err != nil {
			t.Fatalf("procs=%d: false positive: %v", p, err)
		}
		if p == 1 {
			base, baseC = res, got
			continue
		}
		if res.Checks != base.Checks || res.Detections != base.Detections ||
			math.Float64bits(res.MaxResidual) != math.Float64bits(base.MaxResidual) ||
			res.NonFinite != base.NonFinite {
			t.Fatalf("procs=%d: FTResult %+v differs from serial %+v", p, res, base)
		}
		if !baseC.Equal(got) {
			t.Fatalf("procs=%d: fused C differs bitwise from serial", p)
		}
	}
}

// injectOnce arms a hook that fires exactly once.
func injectOnce(fire func()) func() bool {
	armed := true
	return func() bool {
		if !armed {
			return false
		}
		armed = false
		fire()
		return true
	}
}

// runFusedInjection runs DgemmFT with a one-shot corruption planted via
// the given hook setter and returns the report.
func runFusedInjection(t *testing.T, m, n, k int, plant func()) FTResult {
	t.Helper()
	a := matrix.Random(m, k, 71)
	b := matrix.Random(k, n, 72)
	c := matrix.Random(m, n, 73)
	plant()
	defer func() {
		ftTestCorruptPacked = nil
		ftTestCorruptTile = nil
	}()
	res, err := DgemmFT(NoTrans, NoTrans, m, n, k, 1.0, a.Data, a.Stride, b.Data, b.Stride, 1.0, c.Data, c.Stride)
	if res.Detections > 0 && err == nil {
		t.Fatal("detections reported but error is nil: silent detection")
	}
	if res.Detections == 0 && err != nil {
		t.Fatalf("no detections but error %v", err)
	}
	if err != nil && !errors.Is(err, ErrFTDetected) {
		t.Fatalf("unexpected error type: %v", err)
	}
	return res
}

// TestDgemmFTInjectionPackedBitSweep flips each bit position of one
// packed-A and one packed-B element in turn — mantissa bits down to the
// detectability floor, every exponent bit, and the sign — and requires
// the epilogue verify to catch every one. Exponent-bit flips that push
// totals to ±Inf/NaN must be flagged NonFinite, never silently passed.
func TestDgemmFTInjectionPackedBitSweep(t *testing.T) {
	origProcs := SetMaxProcs(1)
	defer SetMaxProcs(origProcs)
	const m, n, k = 48, 36, 24

	var bits []uint
	for b := uint(30); b < 64; b++ { // high mantissa, exponent 52–62, sign 63
		bits = append(bits, b)
	}
	for _, target := range []string{"packedA", "packedB"} {
		for _, bit := range bits {
			t.Run(fmt.Sprintf("%s/bit%d", target, bit), func(t *testing.T) {
				res := runFusedInjection(t, m, n, k, func() {
					fire := injectOnce(func() {})
					ftTestCorruptPacked = func(bufA, bufB []float64) {
						if !fire() {
							return
						}
						buf := bufA
						if target == "packedB" {
							buf = bufB
						}
						// element (2, k-step 1) of the first micro-panel
						buf[1*4+2] = math.Float64frombits(math.Float64bits(buf[1*4+2]) ^ (1 << bit))
					}
				})
				if res.Detections == 0 {
					t.Fatalf("bit %d flip in %s not detected (maxResidual %.3g)", bit, target, res.MaxResidual)
				}
				if res.NonFinite && res.MaxResidual != math.Inf(1) {
					t.Fatalf("NonFinite detection must pin MaxResidual to +Inf, got %v", res.MaxResidual)
				}
			})
		}
	}
}

// TestDgemmFTInjectionTileBitSweep plants the flip in the accumulated C
// tile after the micro-kernel sweeps but before the epilogue verify —
// the "fault in the output while hot in cache" case.
func TestDgemmFTInjectionTileBitSweep(t *testing.T) {
	origProcs := SetMaxProcs(1)
	defer SetMaxProcs(origProcs)
	const m, n, k = 48, 36, 24
	for bit := uint(30); bit < 64; bit++ {
		t.Run(fmt.Sprintf("bit%d", bit), func(t *testing.T) {
			res := runFusedInjection(t, m, n, k, func() {
				fire := injectOnce(func() {})
				ftTestCorruptTile = func(ct []float64, ldc, mc, nc int) {
					if !fire() {
						return
					}
					ct[3*ldc+5] = math.Float64frombits(math.Float64bits(ct[3*ldc+5]) ^ (1 << bit))
				}
			})
			if res.Detections == 0 {
				t.Fatalf("bit %d tile flip not detected (maxResidual %.3g)", bit, res.MaxResidual)
			}
			// A tile flip perturbs one row sum and one column sum; both
			// directions should fire for significant bits.
			if res.Detections < 1 || res.Checks != m+n {
				t.Fatalf("checks=%d detections=%d, want %d checks", res.Checks, res.Detections, m+n)
			}
		})
	}
}

// TestDgemmFTNonFiniteNeverSilent forces an exponent flip that drives the
// tile to ±Inf and requires the full non-finite contract: error returned,
// NonFinite set, MaxResidual pinned to +Inf.
func TestDgemmFTNonFiniteNeverSilent(t *testing.T) {
	origProcs := SetMaxProcs(1)
	defer SetMaxProcs(origProcs)
	const m, n, k = 16, 16, 8
	a := matrix.Random(m, k, 81)
	b := matrix.Random(k, n, 82)
	c := matrix.Random(m, n, 83)
	fire := injectOnce(func() {})
	ftTestCorruptTile = func(ct []float64, ldc, mc, nc int) {
		if !fire() {
			return
		}
		ct[0] = math.Inf(1)
	}
	defer func() { ftTestCorruptTile = nil }()
	res, err := DgemmFT(NoTrans, NoTrans, m, n, k, 1.0, a.Data, a.Stride, b.Data, b.Stride, 0.0, c.Data, c.Stride)
	if !errors.Is(err, ErrFTDetected) {
		t.Fatalf("non-finite tile returned err=%v, want ErrFTDetected", err)
	}
	if !res.NonFinite {
		t.Fatal("NonFinite not set for an Inf tile element")
	}
	if res.MaxResidual != math.Inf(1) {
		t.Fatalf("MaxResidual = %v, want +Inf", res.MaxResidual)
	}
}

// TestDgemvFTDMR: dual modular redundancy on Dgemv catches the flips the
// checksum path cannot — a single-ulp mantissa flip far below any
// norm-scaled threshold — and stays quiet on clean runs, for both
// transpose cases and strided y.
func TestDgemvFTDMR(t *testing.T) {
	const m, n = 37, 29
	a := matrix.Random(m, n, 91)
	x := matrix.Random(n, 1, 92)
	xT := matrix.Random(m, 1, 93)
	for _, tc := range []struct {
		name  string
		trans Transpose
		incY  int
	}{
		{"notrans", NoTrans, 1},
		{"trans", Trans, 1},
		{"notrans-strided", NoTrans, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lenY := m
			xx := x
			if tc.trans == Trans {
				lenY = n
				xx = xT
			}
			y := make([]float64, lenY*tc.incY)
			for i := range y {
				y[i] = 0.25 * float64(i)
			}
			// Clean run: bitwise agreement, no detections.
			res, err := DgemvFT(tc.trans, m, n, 1.1, a.Data, a.Stride, xx.Data, 1, 0.6, y, tc.incY)
			if err != nil || res.Detections != 0 {
				t.Fatalf("clean DMR run: err=%v res=%+v", err, res)
			}
			if res.Checks != lenY {
				t.Fatalf("checks=%d, want %d", res.Checks, lenY)
			}
			// Single-ulp flip in the primary between the runs.
			ftTestCorruptDMR = func(out []float64, inc int) {
				out[2*inc] = math.Float64frombits(math.Float64bits(out[2*inc]) ^ 1)
			}
			defer func() { ftTestCorruptDMR = nil }()
			res, err = DgemvFT(tc.trans, m, n, 1.1, a.Data, a.Stride, xx.Data, 1, 0.6, y, tc.incY)
			if !errors.Is(err, ErrFTDetected) {
				t.Fatalf("ulp flip not detected: err=%v res=%+v", err, res)
			}
			if res.Detections != 1 {
				t.Fatalf("detections=%d, want exactly the flipped element", res.Detections)
			}
		})
	}
}

// panicText runs f and returns the value it panics with ("" if none).
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestDMRValidatesLikePlain: the DMR twins validate their arguments before
// the shadow copy touches y or A, so a malformed call panics with the same
// text as the plain routine instead of an index error.
func TestDMRValidatesLikePlain(t *testing.T) {
	const m, n = 6, 4
	a := make([]float64, m*n)
	x := make([]float64, m)
	shortY := make([]float64, n-1)
	for _, trans := range []Transpose{NoTrans, Trans} {
		lenX := n
		if trans == Trans {
			lenX = m
		}
		want := panicText(func() { Dgemv(trans, m, n, 1, a, m, x[:lenX], 1, 0, shortY, 1) })
		got := panicText(func() { DgemvFT(trans, m, n, 1, a, m, x[:lenX], 1, 0, shortY, 1) })
		if want == "" || got != want {
			t.Fatalf("%v short y: DgemvFT panicked %q, Dgemv %q", trans, got, want)
		}
	}
	shortA := make([]float64, m*n-1)
	want := panicText(func() { Dger(m, n, 1, x, 1, x[:n], 1, shortA, m) })
	got := panicText(func() { DgerFT(m, n, 1, x, 1, x[:n], 1, shortA, m) })
	if want == "" || got != want {
		t.Fatalf("short A: DgerFT panicked %q, Dger %q", got, want)
	}
}

// TestDgerFTDMR: same contract for the rank-1 update, including the
// non-finite flag when the flip lands in an exponent bit.
func TestDgerFTDMR(t *testing.T) {
	const m, n = 23, 17
	x := matrix.Random(m, 1, 94)
	y := matrix.Random(n, 1, 95)
	a0 := matrix.Random(m, n, 96)

	a := a0.Clone()
	res, err := DgerFT(m, n, -0.8, x.Data, 1, y.Data, 1, a.Data, a.Stride)
	if err != nil || res.Detections != 0 {
		t.Fatalf("clean DgerFT run: err=%v res=%+v", err, res)
	}
	want := a0.Clone()
	Dger(m, n, -0.8, x.Data, 1, y.Data, 1, want.Data, want.Stride)
	if !want.Equal(a) {
		t.Fatal("DgerFT differs bitwise from Dger")
	}

	a = a0.Clone()
	ftTestCorruptDMR = func(out []float64, inc int) {
		out[5] = math.Float64frombits(math.Float64bits(out[5]) ^ 1)
	}
	res, err = DgerFT(m, n, -0.8, x.Data, 1, y.Data, 1, a.Data, a.Stride)
	ftTestCorruptDMR = nil
	if !errors.Is(err, ErrFTDetected) || res.Detections != 1 {
		t.Fatalf("ulp flip in Dger output not detected: err=%v res=%+v", err, res)
	}

	a = a0.Clone()
	ftTestCorruptDMR = func(out []float64, inc int) {
		out[5] = math.Float64frombits(math.Float64bits(out[5]) ^ (1 << 62))
	}
	res, err = DgerFT(m, n, -0.8, x.Data, 1, y.Data, 1, a.Data, a.Stride)
	ftTestCorruptDMR = nil
	if !errors.Is(err, ErrFTDetected) {
		t.Fatalf("exponent flip not detected: err=%v", err)
	}
	if math.IsInf(a.Data[5], 0) || math.IsNaN(a.Data[5]) {
		if !res.NonFinite {
			t.Fatal("non-finite DMR mismatch must set NonFinite")
		}
	}
}

// TestFTGemmOverheadFracModel pins the modeled premium: a few percent at
// the 512³ bench shape, monotonically worse for thin shapes, zero for
// empty problems.
func TestFTGemmOverheadFracModel(t *testing.T) {
	if f := FTGemmOverheadFrac(512, 512, 512); f <= 0 || f > 0.08 {
		t.Fatalf("512^3 modeled overhead %.4f outside (0, 8%%]", f)
	}
	if f := FTGemmOverheadFrac(0, 4, 4); f != 0 {
		t.Fatalf("empty problem overhead %v, want 0", f)
	}
	if FTGemmOverheadFrac(8, 8, 256) <= FTGemmOverheadFrac(512, 512, 256) {
		t.Fatal("small tiles must carry a larger relative premium")
	}
}
