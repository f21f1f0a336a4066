package blas

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
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

// wantFTChecks is DgemmFT's check count for an m×n×k product: every work
// item compares its row sums and its column sums.
func wantFTChecks(m, n, k int) int {
	g := newGemmGrid(m, n, k)
	checks := 0
	for jc := 0; jc < n; jc += g.width {
		nc := min(g.width, n-jc)
		checks += g.ranges(nc)*m + g.mBlocks*nc
	}
	return checks
}

// ftItemOrigins lists the top-left element (ic, jc) in C of every work
// item of an m×n×k product, in the order the serial nest runs them.
func ftItemOrigins(m, n, k int) [][2]int {
	g := newGemmGrid(m, n, k)
	var origins [][2]int
	for jc := 0; jc < n; jc += g.width {
		nc := min(g.width, n-jc)
		for t := range g.mBlocks * g.ranges(nc) {
			j0, _ := g.span(nc, t%g.ranges(nc))
			origins = append(origins, [2]int{t / g.ranges(nc) * gemmMC, jc + j0})
		}
	}
	return origins
}

// checkFusedMatchesPlain runs one (shape, transpose, beta) case through
// both kernels and requires bitwise-equal C and a clean report with the
// work-item grid's check count. It returns both results.
func checkFusedMatchesPlain(t *testing.T, tA, tB Transpose, m, n, k int, beta float64) (plain, fused *matrix.Matrix) {
	t.Helper()
	const alpha = 1.3
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
		t.Fatalf("DgemmFT(%v,%v) m=%d n=%d k=%d beta=%v: false positive: %v (res %+v)", tA, tB, m, n, k, beta, err, res)
	}
	if res.Checks != wantFTChecks(m, n, k) {
		t.Fatalf("DgemmFT(%v,%v) m=%d n=%d k=%d beta=%v: %d checks, want %d", tA, tB, m, n, k, beta, res.Checks, wantFTChecks(m, n, k))
	}
	if !want.Equal(got) {
		t.Fatalf("DgemmFT(%v,%v) m=%d n=%d k=%d beta=%v differs bitwise from Dgemm", tA, tB, m, n, k, beta)
	}
	return want, got
}

// fusedBetas are the beta cases of the folded kernel: 0 (no sums of beta·C
// at all), 1 (the trailing updates; no scaling) and a general scale.
var fusedBetas = []float64{0, 1, -0.5}

// fusedGridShapes are the folded kernel's k cases — one k step, the
// rank-nb update depth, and more than one KC chunk — at m and n that are
// not multiples of 4, one of them spanning two MC and two NC blocks.
func fusedGridShapes() [][3]int {
	var shapes [][3]int
	for _, k := range []int{1, 32, gemmKC + 1} {
		for _, mn := range [][2]int{{7, 5}, {37, 22}, {gemmMC + 9, gemmNC + 3}} {
			shapes = append(shapes, [3]int{mn[0], mn[1], k})
		}
	}
	return shapes
}

func runFusedProperty(t *testing.T, shapes [][3]int, betas []float64) {
	for _, tA := range []Transpose{NoTrans, Trans} {
		for _, tB := range []Transpose{NoTrans, Trans} {
			for _, s := range shapes {
				for _, beta := range betas {
					checkFusedMatchesPlain(t, tA, tB, s[0], s[1], s[2], beta)
				}
			}
		}
	}
}

// fusedNestShapes are the loop nest's grid corners: m ≤ MC (strips split
// into four ranges) with several NC blocks and KC chunks, m > 4·MC (no
// split) with a single fringe strip, and ragged m and n over three row
// blocks (strips split into two ranges). The split shapes are above
// gemmSplitFlops.
var fusedNestShapes = [][3]int{
	{gemmMC - 96, 2*gemmNC + 9, gemmKC + 37},
	{4*gemmMC + 9, gemmNR - 1, 37},
	{2*gemmMC + 3, gemmNC + 6, 70},
}

// checkFusedAcrossProcs runs one nest-shape case at SetMaxProcs 1, 2, 3
// and 8 with the pool path forced: plain must equal fused, and each must
// equal its own serial run, bit for bit.
func checkFusedAcrossProcs(t *testing.T, tA, tB Transpose, m, n, k int, beta float64) {
	t.Helper()
	defer SetMaxProcs(SetMaxProcs(1))
	defer func(orig int) { parallelGemmThreshold = orig }(parallelGemmThreshold)
	parallelGemmThreshold = 1
	plain1, fused1 := checkFusedMatchesPlain(t, tA, tB, m, n, k, beta)
	for _, p := range []int{2, 3, 8} {
		SetMaxProcs(p)
		plain, fused := checkFusedMatchesPlain(t, tA, tB, m, n, k, beta)
		if !plain.Equal(plain1) || !fused.Equal(fused1) {
			t.Fatalf("(%v,%v) m=%d n=%d k=%d beta=%v: SetMaxProcs(%d) differs bitwise from the serial run", tA, tB, m, n, k, beta, p)
		}
	}
}

// TestDgemmPropertyFusedBitwise: the fused-ABFT kernel is bitwise-equal
// to plain Dgemm, with the work-item grid's check count, over the
// odd/prime size grid, the cache-block boundary shapes, the folded
// kernel's beta × k grid and the loop nest's grid corners (at four worker
// counts each), on the serial and forced-pool paths, under both
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
	gemmPropConfigs(t, func(t *testing.T) {
		runFusedProperty(t, shapes, []float64{-0.7})
		runFusedProperty(t, fusedGridShapes(), fusedBetas)
		for _, tA := range []Transpose{NoTrans, Trans} {
			for _, tB := range []Transpose{NoTrans, Trans} {
				for _, s := range fusedNestShapes {
					for _, beta := range []float64{0, 1, 0.5} {
						checkFusedAcrossProcs(t, tA, tB, s[0], s[1], s[2], beta)
					}
				}
			}
		}
	})
}

// TestDgemmPropertyFusedReportDeterministic: the FTResult itself — not
// just C — must be identical at every SetMaxProcs value, since the ft
// layer journals its counts. Covers both micro-kernels and the folded
// kernel's beta × k grid.
func TestDgemmPropertyFusedReportDeterministic(t *testing.T) {
	origProcs := SetMaxProcs(1)
	origThresh := parallelGemmThreshold
	origKernel := useAVXKernel
	defer func() {
		SetMaxProcs(origProcs)
		parallelGemmThreshold = origThresh
		useAVXKernel = origKernel
	}()
	parallelGemmThreshold = 1

	shapes := append(fusedGridShapes(), [3]int{gemmMC + 37, gemmNC + 11, 2*gemmKC + 5})
	for _, avx := range []bool{false, origKernel} {
		useAVXKernel = avx
		for _, s := range shapes {
			m, n, k := s[0], s[1], s[2]
			a := matrix.Random(m, k, 61)
			b := matrix.Random(k, n, 62)
			c0 := matrix.Random(m, n, 63)
			for _, beta := range append([]float64{0.4}, fusedBetas...) {
				var base FTResult
				var baseC *matrix.Matrix
				for _, p := range []int{1, 2, 3, 7, 16} {
					SetMaxProcs(p)
					got := c0.Clone()
					res, err := DgemmFT(NoTrans, NoTrans, m, n, k, 1.1, a.Data, a.Stride, b.Data, b.Stride, beta, got.Data, got.Stride)
					name := fmt.Sprintf("avx=%v m=%d n=%d k=%d beta=%v procs=%d", avx, m, n, k, beta, p)
					if err != nil {
						t.Fatalf("%s: false positive: %v", name, err)
					}
					if p == 1 {
						base, baseC = res, got
						continue
					}
					if res.Checks != base.Checks || res.Detections != base.Detections ||
						math.Float64bits(res.MaxResidual) != math.Float64bits(base.MaxResidual) ||
						res.NonFinite != base.NonFinite {
						t.Fatalf("%s: FTResult %+v differs from serial %+v", name, res, base)
					}
					if !baseC.Equal(got) {
						t.Fatalf("%s: fused C differs bitwise from serial", name)
					}
				}
			}
		}
	}
}

// injectOnce arms a hook that fires exactly once, also when the parallel
// path calls it from several workers.
func injectOnce(fire func()) func() bool {
	var fired atomic.Bool
	return func() bool {
		if !fired.CompareAndSwap(false, true) {
			return false
		}
		fire()
		return true
	}
}

// injectionCase is one configuration of the injection sweeps' grid.
type injectionCase struct {
	avx, parallel bool
	m, n, k       int
	beta          float64
}

func (c injectionCase) String() string {
	return fmt.Sprintf("avx=%v parallel=%v m=%d n=%d k=%d beta=%v", c.avx, c.parallel, c.m, c.n, c.k, c.beta)
}

// apply installs the case's kernel and pool settings and returns a func
// restoring the previous ones.
func (c injectionCase) apply() func() {
	origKernel := useAVXKernel
	origProcs := SetMaxProcs(1)
	origThresh := parallelGemmThreshold
	useAVXKernel = c.avx
	if c.parallel {
		SetMaxProcs(4)
		parallelGemmThreshold = 1
	}
	return func() {
		useAVXKernel = origKernel
		SetMaxProcs(origProcs)
		parallelGemmThreshold = origThresh
	}
}

// splitStrips makes every product split its strips for the rest of the
// test, so the small injection shapes have split-strip work items.
func splitStrips(t *testing.T) {
	orig := gemmSplitFlops
	gemmSplitFlops = 0
	t.Cleanup(func() { gemmSplitFlops = orig })
}

// lastChunk is the first k index of the case's last KC chunk.
func (c injectionCase) lastChunk() int { return (c.k - 1) / gemmKC * gemmKC }

// injectionGrid is the configurations every injection sweep runs: both
// micro-kernels, serial and forced-parallel, beta ∈ fusedBetas, k ∈
// {1, 32, KC+1} and m, n not multiples of 4. The first shape is one MC
// row block whose strips split into four work items; the second spans two
// row blocks of two strip ranges each. -short keeps the corners.
func injectionGrid() []injectionCase {
	kernels := []bool{useAVXKernel}
	if useAVXKernel {
		kernels = append(kernels, false)
	}
	betas, ks := fusedBetas, []int{1, 32, gemmKC + 1}
	shapes := [][2]int{{37, 22}, {gemmMC + 9, 22}}
	if testing.Short() {
		kernels, betas, ks, shapes = kernels[:1], []float64{0, 1}, []int{1, gemmKC + 1}, shapes[:1]
	}
	var grid []injectionCase
	for _, avx := range kernels {
		for _, par := range []bool{false, true} {
			for _, beta := range betas {
				for _, k := range ks {
					for _, mn := range shapes {
						grid = append(grid, injectionCase{avx, par, mn[0], mn[1], k, beta})
					}
				}
			}
		}
	}
	return grid
}

// runFusedInjection runs DgemmFT for case c with a one-shot corruption
// planted via the given hook setter and returns the report.
func runFusedInjection(t *testing.T, c injectionCase, plant func()) FTResult {
	t.Helper()
	defer c.apply()()
	a := matrix.Random(c.m, c.k, 71)
	b := matrix.Random(c.k, c.n, 72)
	cm := matrix.Random(c.m, c.n, 73)
	plant()
	defer func() {
		ftTestCorruptPacked = nil
		ftTestCorruptTile = nil
	}()
	res, err := DgemmFT(NoTrans, NoTrans, c.m, c.n, c.k, 1.0, a.Data, a.Stride, b.Data, b.Stride, c.beta, cm.Data, cm.Stride)
	if res.Detections > 0 && err == nil {
		t.Fatalf("%v: detections reported but error is nil: silent detection", c)
	}
	if res.Detections == 0 && err != nil {
		t.Fatalf("%v: no detections but error %v", c, err)
	}
	if err != nil && !errors.Is(err, ErrFTDetected) {
		t.Fatalf("%v: unexpected error type: %v", c, err)
	}
	if res.Checks != wantFTChecks(c.m, c.n, c.k) {
		t.Fatalf("%v: %d checks, want %d", c, res.Checks, wantFTChecks(c.m, c.n, c.k))
	}
	if res.NonFinite && res.MaxResidual != math.Inf(1) {
		t.Fatalf("%v: NonFinite detection must pin MaxResidual to +Inf, got %v", c, res.MaxResidual)
	}
	return res
}

// TestDgemmFTInjectionPackedBitSweep flips each bit position of one
// packed-A and one packed-B element in turn — mantissa bits down to the
// detectability floor, every exponent bit, and the sign — in the first KC
// chunk and in the last one, in every work item, across the injection
// grid, and requires the
// verify to catch every one. Exponent-bit flips that push totals to
// ±Inf/NaN must be flagged NonFinite, never silently passed.
func TestDgemmFTInjectionPackedBitSweep(t *testing.T) {
	splitStrips(t)
	var bits []uint
	for b := uint(30); b < 64; b++ { // high mantissa, exponent 52–62, sign 63
		bits = append(bits, b)
	}
	grid := injectionGrid()
	for _, target := range []string{"packedA", "packedB"} {
		for _, bit := range bits {
			t.Run(fmt.Sprintf("%s/bit%d", target, bit), func(t *testing.T) {
				for _, c := range grid {
					if bit < 32 && c.k > 32 {
						// The tolerance grows with k, which lifts the floor:
						// bit 30 of a packed element sits below it at k = KC+1.
						continue
					}
					for _, o := range ftItemOrigins(c.m, c.n, c.k) {
						for _, chunk := range []int{0, c.lastChunk()} {
							res := runFusedInjection(t, c, func() {
								fire := injectOnce(func() {})
								ftTestCorruptPacked = func(bufA, bufB []float64, ic, jc, pc int) {
									if ic != o[0] || jc != o[1] || pc != chunk || !fire() {
										return
									}
									buf := bufA
									if target == "packedB" {
										buf = bufB
									}
									// element (2, k step 1 — or 0 in a one-step
									// chunk) of the item's first micro-panel
									e := min(1, c.k-pc-1)*4 + 2
									buf[e] = math.Float64frombits(math.Float64bits(buf[e]) ^ (1 << bit))
								}
							})
							if res.Detections == 0 {
								t.Fatalf("%v: bit %d flip in %s of item %v in the chunk at k=%d not detected (maxResidual %.3g)",
									c, bit, target, o, chunk, res.MaxResidual)
							}
						}
					}
				}
			})
		}
	}
}

// TestDgemmFTInjectionTileBitSweep plants the flip in a finished strip of
// the C tile after its last micro-kernel store but before its sums are
// taken — the "fault in the output while hot in cache" case — in every
// work item, across the injection grid.
func TestDgemmFTInjectionTileBitSweep(t *testing.T) {
	splitStrips(t)
	grid := injectionGrid()
	for bit := uint(30); bit < 64; bit++ {
		t.Run(fmt.Sprintf("bit%d", bit), func(t *testing.T) {
			for _, c := range grid {
				for _, o := range ftItemOrigins(c.m, c.n, c.k) {
					res := runFusedInjection(t, c, func() {
						fire := injectOnce(func() {})
						ftTestCorruptTile = func(ct []float64, ldc, ic, jc, mc, j0, j1 int) {
							if ic != o[0] || jc != o[1] || j0 > 3 || 3 >= j1 || !fire() {
								return
							}
							ct[3*ldc+5] = math.Float64frombits(math.Float64bits(ct[3*ldc+5]) ^ (1 << bit))
						}
					})
					if res.Detections == 0 {
						t.Fatalf("%v: bit %d tile flip in item %v not detected (maxResidual %.3g)", c, bit, o, res.MaxResidual)
					}
				}
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
	ftTestCorruptTile = func(ct []float64, ldc, ic, jc, mc, j0, j1 int) {
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

// TestChecksumPassKernelMatchesGo: the AVX2 checksum pass (stripSums over
// a tile's NR-column strips) agrees with the portable loop. Row sums keep the per-lane order, so they match bit for
// bit; column sums combine per-lane partials, so they match within the
// tightest ftCheck tolerance DgemmFT uses (k = 0) — and exactly on an
// integer-valued tile, where every grouping is exact, which pins each
// column's partials to its own output slot.
func TestChecksumPassKernelMatchesGo(t *testing.T) {
	if !useAVXKernel {
		t.Skip("no AVX2 kernel on this machine")
	}
	defer func(orig bool) { useAVXKernel = orig }(useAVXKernel)
	for _, integer := range []bool{false, true} {
		for _, mc := range []int{1, 3, 4, 5, 8, 11, 37, gemmMC} {
			for _, nc := range []int{1, 4, 6, 9, 17} {
				ldc := mc + 3
				ct := matrix.Random(ldc, nc, uint64(mc*100+nc)).Data
				if integer {
					for i := range ct {
						ct[i] = math.Round(64 * ct[i])
					}
				}
				var got, want [4][]float64
				for k, avx := range []bool{true, false} {
					out := &got
					if k == 1 {
						out = &want
					}
					useAVXKernel = avx
					*out = [4][]float64{make([]float64, mc), make([]float64, mc), make([]float64, nc), make([]float64, nc)}
					for j := 0; j < nc; j += gemmNR {
						nr := min(gemmNR, nc-j)
						stripSums(ct[j*ldc:], ldc, nr, out[0], out[1], out[2][j:j+nr], out[3][j:j+nr])
					}
				}
				name := fmt.Sprintf("integer=%v mc=%d nc=%d", integer, mc, nc)
				for s := 0; s < 2; s++ {
					for i := range got[s] {
						if math.Float64bits(got[s][i]) != math.Float64bits(want[s][i]) {
							t.Fatalf("%s: row output %d[%d] = %v, Go loop %v", name, s, i, got[s][i], want[s][i])
						}
					}
				}
				tolScale := FTThresholdFactor * ftMacheps * 2
				for j := 0; j < nc; j++ {
					for s := 2; s < 4; s++ {
						gap := math.Abs(got[s][j] - want[s][j])
						if integer && gap != 0 || gap > tolScale*(want[3][j]+1) {
							t.Fatalf("%s: column output %d[%d] = %v, Go loop %v", name, s, j, got[s][j], want[s][j])
						}
					}
				}
			}
		}
	}
}
