package blas

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/obs"
)

// TestDgemvFTOnePassBitwise: DgemvFT's primary output is bitwise Dgemv's
// (any two NaNs equal) and its report is clean, under every kernel and
// pool configuration, so the one-pass AVX2 path and the two-call path
// agree with the plain routine. The grid covers every m mod 4 and n mod 4
// (n < 4 included), zero x entries inside and outside the 4-column
// groups, alpha ∈ {0, 1, −1.5}, beta ∈ {0, 0.5, 1}, incX ∈ {1, 3}, and
// NaN/±Inf in A and x. A carries NaN padding rows and y trailing sentinels,
// so a kernel reading past a column or writing past y shows up too.
func TestDgemvFTOnePassBitwise(t *testing.T) {
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 19, 34}
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11}
	zeroPatterns := []struct {
		name string
		zero func(j, n int) bool
	}{
		{"dense", func(j, n int) bool { return false }},
		{"zero-in-group", func(j, n int) bool { return j == 2 }},
		{"zero-in-tail", func(j, n int) bool { return j == n-1 && n%4 != 0 }},
		{"every-third", func(j, n int) bool { return j%3 == 1 }},
	}
	for _, cfg := range l12Configs() {
		t.Run(cfg.String(), func(t *testing.T) {
			restore := cfg.apply()
			defer restore()
			for _, special := range []bool{false, true} {
				for _, m := range ms {
					for _, n := range ns {
						for zi, zp := range zeroPatterns {
							for _, incX := range []int{1, 3} {
								g := newL12Gen(int64(m*1000+n*10+zi), special)
								lda := m + 2
								a := g.buf(lda * n)
								for j := 0; j < n; j++ {
									a[j*lda+m], a[j*lda+m+1] = math.NaN(), math.Inf(1)
								}
								x := g.buf(vecLen(n, incX))
								for j := 0; j < n; j++ {
									if zp.zero(j, n) {
										x[j*incX] = 0
									}
								}
								y0 := append(g.buf(m), -7, -7, -7)
								for _, alpha := range []float64{0, 1, -1.5} {
									for _, beta := range []float64{0, 0.5, 1} {
										name := fmt.Sprintf("special=%v m=%d n=%d %s incX=%d alpha=%v beta=%v", special, m, n, zp.name, incX, alpha, beta)
										checkDgemvFTMatchesPlain(t, name, m, n, alpha, a, lda, x, incX, beta, y0)
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// checkDgemvFTMatchesPlain runs one NoTrans case through Dgemv and
// DgemvFT on copies of y0, whose last three elements are sentinels
// outside y, and requires equal bits and a clean report.
func checkDgemvFTMatchesPlain(t *testing.T, name string, m, n int, alpha float64, a []float64, lda int, x []float64, incX int, beta float64, y0 []float64) {
	t.Helper()
	want := append([]float64(nil), y0...)
	Dgemv(NoTrans, m, n, alpha, a, lda, x, incX, beta, want[:m], 1)
	got := append([]float64(nil), y0...)
	rep, err := DgemvFT(NoTrans, m, n, alpha, a, lda, x, incX, beta, got[:m], 1)
	if err != nil || rep.Detections != 0 || rep.Checks != m {
		t.Fatalf("%s: err=%v report %+v, want a clean run of %d checks", name, err, rep, m)
	}
	for i := range got {
		if contractBits(got[i]) != contractBits(want[i]) {
			t.Fatalf("%s: y[%d] = %v (%#016x), Dgemv gives %v (%#016x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestDMRChargesFTOpOnce: a DMR call is timed once, under its own op, with
// the 2mn flops of one plain call — its two copies are not also counted
// under op="gemv"/"ger". Covers the one-pass NoTrans path, the two-call
// Trans path and DgerFT.
func TestDMRChargesFTOpOnce(t *testing.T) {
	reg := obs.NewRegistry()
	prev := SetObs(reg)
	defer SetObs(prev)
	const m, n = 64, 24
	g := newL12Gen(7, false)
	a := g.buf(m * n)
	x := g.buf(m)
	y := g.buf(m)
	flops := func() float64 { return reg.CounterValue("blas_flops_total") }
	secs := func(op string) float64 { return reg.CounterValue("blas_op_seconds_total", obs.L("op", op)) }

	for _, trans := range []Transpose{NoTrans, Trans} {
		before := flops()
		if _, err := DgemvFT(trans, m, n, 1.5, a, m, x, 1, 0.5, y, 1); err != nil {
			t.Fatal(err)
		}
		if got := flops() - before; got != 2*m*n {
			t.Errorf("DgemvFT(%v) added %v flops, want %d", trans, got, 2*m*n)
		}
		if s := secs("gemv"); s != 0 {
			t.Errorf("DgemvFT(%v) charged %vs to op=gemv", trans, s)
		}
	}
	before := flops()
	if _, err := DgerFT(m, n, 1.5, x, 1, y, 1, a, m); err != nil {
		t.Fatal(err)
	}
	if got := flops() - before; got != 2*m*n {
		t.Errorf("DgerFT added %v flops, want %d", got, 2*m*n)
	}
	if s := secs("ger"); s != 0 {
		t.Errorf("DgerFT charged %vs to op=ger", s)
	}
}

// TestDgemvFTDetectsAnyRowFlip: the DMR compare's all-bits-equal pass
// catches a one-ulp flip of the primary output in every row under every kernel and pool configuration (the procs=2 configs
// force the sharded path), with exactly one check per row; and two NaNs
// with different payloads still compare equal, while a NaN against a
// number is a non-finite detection.
func TestDgemvFTDetectsAnyRowFlip(t *testing.T) {
	const m, n = 37, 9
	g := newL12Gen(11, false)
	a := g.buf(m * n)
	x := g.buf(n)
	y0 := g.buf(m)
	defer func() { ftTestCorruptDMR = nil }()
	for _, cfg := range l12Configs() {
		t.Run(cfg.String(), func(t *testing.T) {
			defer cfg.apply()()
			run := func(x []float64, corrupt func(out []float64)) FTResult {
				ftTestCorruptDMR = func(out []float64, inc int) { corrupt(out) }
				y := append([]float64(nil), y0...)
				rep, err := DgemvFT(NoTrans, m, n, 1.5, a, m, x, 1, 0.5, y, 1)
				if (err != nil) != (rep.Detections > 0) || rep.Checks != m {
					t.Fatalf("err=%v report %+v, want an error exactly on a detection and %d checks", err, rep, m)
				}
				return rep
			}
			for r := 0; r < m; r++ {
				rep := run(x, func(out []float64) { out[r] = math.Float64frombits(math.Float64bits(out[r]) ^ 1) })
				if rep.Detections != 1 {
					t.Fatalf("row %d: one-ulp flip gave %d detections, want 1", r, rep.Detections)
				}
			}
			nanX := append([]float64(nil), x...)
			nanX[4] = math.NaN() // every output is NaN
			for r := 0; r < m; r++ {
				rep := run(nanX, func(out []float64) { out[r] = math.Float64frombits(0x7ff8dead00000000) })
				if rep.Detections != 0 {
					t.Fatalf("row %d: a NaN with another payload was flagged: %+v", r, rep)
				}
				rep = run(nanX, func(out []float64) { out[r] = 1 })
				if rep.Detections != 1 || !rep.NonFinite {
					t.Fatalf("row %d: a number against a NaN gave %+v, want one non-finite detection", r, rep)
				}
			}
		})
	}
}
