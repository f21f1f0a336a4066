package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Bit-identity property test for the Level-1/2 kernels. The vectorised
// column axpy (axpy_amd64.s) and the interleaved transposed Dgemv promise
// the exact bits of the scalar loops, not merely close values, so every
// case here runs under each kernel implementation and pool width and the
// outputs are compared with math.Float64bits — including the padding and
// stride gaps, which must stay untouched. The one exception is the payload
// of a NaN result: x86 returns the first operand's payload when both are
// NaN, and the Go compiler picks operand order per loop (even per chain of
// the interleaved transposed Dgemv), so a NaN must stay a NaN but its
// payload is not part of the contract.
//
// The cases cover every tail of the 16- and 4-wide vector loops (lengths
// 0–67), unaligned slice offsets, non-unit increments, multipliers of
// 0, ±1, a random value and subnormals, inputs carrying Inf, NaNs with
// distinct payloads, subnormals and signed zeros, both axpy signs, and
// transposed Dgemv with n mod 4 ≠ 0.

// l12Config is one execution configuration: the axpy kernel implementation
// and the pool width. Width 2 also forces the sharded paths at every size.
type l12Config struct {
	avx   bool
	procs int
}

func (c l12Config) String() string {
	k := "go"
	if c.avx {
		k = "avx"
	}
	return fmt.Sprintf("kernel=%s/procs=%d", k, c.procs)
}

// l12Configs lists the configurations available on this machine; the
// first (portable kernel, serial) is the reference.
func l12Configs() []l12Config {
	kernels := []bool{false}
	if useAVXKernel {
		kernels = append(kernels, true)
	}
	var cs []l12Config
	for _, avx := range kernels {
		for _, p := range []int{1, 2} {
			cs = append(cs, l12Config{avx, p})
		}
	}
	return cs
}

// apply installs c and returns a func restoring the previous settings.
func (c l12Config) apply() func() {
	origKernel := useAVXKernel
	origProcs := SetMaxProcs(c.procs)
	origL2, origTrmm := parallelL2Threshold, parallelTrmmThreshold
	useAVXKernel = c.avx
	if c.procs > 1 {
		parallelL2Threshold, parallelTrmmThreshold = 1, 1
	}
	return func() {
		useAVXKernel = origKernel
		SetMaxProcs(origProcs)
		parallelL2Threshold, parallelTrmmThreshold = origL2, origTrmm
	}
}

// l12Specials are the non-ordinary inputs: infinities, three NaN payloads
// (the default quiet NaN of an invalid operation among them), subnormals,
// signed zeros, and a value whose products overflow.
var l12Specials = []float64{
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8dead00000000), math.Float64frombits(0xfff8000000000000),
	5e-324, -2.5e-310, math.Copysign(0, -1), 0, 1e308,
}

// l12Mults are the scalar multipliers t (Daxpy's alpha, Dger's alpha, …).
var l12Mults = []float64{0, 1, -1, 0.7315926535897932, 5e-324, -2.5e-310}

// l12Gen draws deterministic inputs for one case.
type l12Gen struct {
	r       *rand.Rand
	special bool
}

func newL12Gen(seed int64, special bool) *l12Gen {
	return &l12Gen{rand.New(rand.NewSource(seed)), special}
}

func (g *l12Gen) val() float64 {
	if g.special && g.r.Intn(8) == 0 {
		return l12Specials[g.r.Intn(len(l12Specials))]
	}
	return 2*g.r.Float64() - 1
}

// buf returns a buffer of n values, each drawn by val.
func (g *l12Gen) buf(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = g.val()
	}
	return b
}

// vecLen is the storage a vector of n elements at stride inc needs.
func vecLen(n, inc int) int {
	if n == 0 {
		return 0
	}
	return (n-1)*inc + 1
}

// l12Case is one deterministic call sequence; run returns every buffer it
// wrote (in full, padding included) concatenated.
type l12Case struct {
	name string
	run  func(t *testing.T) []float64
}

// contractBits is the part of f the kernels promise to reproduce: all of
// its bits, except that every NaN is one NaN.
func contractBits(f float64) uint64 {
	if math.IsNaN(f) {
		return 0x7ff8000000000000
	}
	return math.Float64bits(f)
}

func bitsHash(v []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, f := range v {
		h ^= contractBits(f)
		h *= 1099511628211
	}
	return h ^ uint64(len(v))
}

func l12DaxpyCases() []l12Case {
	var cs []l12Case
	for n := 0; n <= 67; n++ {
		for _, inc := range [][2]int{{1, 1}, {2, 3}} {
			for ti, alpha := range l12Mults {
				for _, special := range []bool{false, true} {
					n, inc, alpha, special := n, inc, alpha, special
					offX, offY := n%4, (n+ti)%4
					seed := int64(n*1000 + inc[0]*100 + ti*10)
					cs = append(cs, l12Case{
						fmt.Sprintf("Daxpy/n=%d/inc=%v/alpha=%g/special=%v", n, inc, alpha, special),
						func(t *testing.T) []float64 {
							g := newL12Gen(seed, special)
							x := g.buf(offX + vecLen(n, inc[0]))
							y := g.buf(offY + vecLen(n, inc[1]) + 2)
							Daxpy(n, alpha, x[offX:], inc[0], y[offY:], inc[1])
							return y
						}})
				}
			}
		}
	}
	return cs
}

// l12GemvCases covers both transposes. Each case also runs DgemvFT on a
// copy of y: its two runs (strided primary, contiguous shadow) must agree
// bit for bit, so it must report no detection, and its output must be
// Dgemv's.
func l12GemvCases() []l12Case {
	ab := [][2]float64{{0, 0.5}, {1, 0}, {-1, 1}, {0.7315926535897932, 0.5}, {5e-324, 1}, {-2.5e-310, 0}}
	var cs []l12Case
	for _, trans := range []Transpose{NoTrans, Trans} {
		for m := 0; m <= 67; m++ {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 13} {
				for pi, p := range ab {
					for _, special := range []bool{false, true} {
						trans, m, n, alpha, beta, special := trans, m, n, p[0], p[1], special
						incX, incY := 1, 1
						if pi%2 == 1 {
							incX, incY = 2, 3
						}
						off := (m + n) % 4
						seed := int64(m*10000 + n*100 + pi*10 + int(trans))
						cs = append(cs, l12Case{
							fmt.Sprintf("Dgemv/%v/m=%d/n=%d/alpha=%g/beta=%g/special=%v", trans, m, n, alpha, beta, special),
							func(t *testing.T) []float64 {
								g := newL12Gen(seed, special)
								lenX, lenY := n, m
								if trans == Trans {
									lenX, lenY = m, n
								}
								lda := max(m, 1) + off
								a := g.buf(off + lda*n)
								x := g.buf(off + vecLen(lenX, incX))
								y := g.buf(off + vecLen(lenY, incY) + 1)
								yFT := append([]float64(nil), y...)
								Dgemv(trans, m, n, alpha, a[off:], lda, x[off:], incX, beta, y[off:], incY)
								rep, err := DgemvFT(trans, m, n, alpha, a[off:], lda, x[off:], incX, beta, yFT[off:], incY)
								if err != nil || rep.Detections != 0 {
									t.Errorf("DgemvFT %v m=%d n=%d: err=%v report %+v on a clean run", trans, m, n, err, rep)
								}
								if bitsHash(yFT) != bitsHash(y) {
									t.Errorf("DgemvFT %v m=%d n=%d: output differs from Dgemv", trans, m, n)
								}
								return y
							}})
					}
				}
			}
		}
	}
	return cs
}

func l12GerCases() []l12Case {
	var cs []l12Case
	for m := 0; m <= 67; m++ {
		for _, n := range []int{0, 1, 3, 4, 5} {
			for ti, alpha := range l12Mults {
				for _, special := range []bool{false, true} {
					m, n, alpha, special := m, n, alpha, special
					incX, incY := 1, 1
					if ti%2 == 1 {
						incX, incY = 3, 2
					}
					off := (m + ti) % 4
					seed := int64(m*1000 + n*10 + ti)
					cs = append(cs, l12Case{
						fmt.Sprintf("Dger/m=%d/n=%d/alpha=%g/special=%v", m, n, alpha, special),
						func(t *testing.T) []float64 {
							g := newL12Gen(seed, special)
							lda := max(m, 1) + off
							x := g.buf(off + vecLen(m, incX))
							y := g.buf(off + vecLen(n, incY))
							a := g.buf(off + lda*n)
							aFT := append([]float64(nil), a...)
							Dger(m, n, alpha, x[off:], incX, y[off:], incY, a[off:], lda)
							rep, err := DgerFT(m, n, alpha, x[off:], incX, y[off:], incY, aFT[off:], lda)
							if err != nil || rep.Detections != 0 {
								t.Errorf("DgerFT m=%d n=%d: err=%v report %+v on a clean run", m, n, err, rep)
							}
							return append(a, aFT...)
						}})
				}
			}
		}
	}
	return cs
}

// triangle draws an n×n triangular operand (column stride lda) whose
// diagonal keeps the solves well conditioned; the unreferenced triangle
// holds values too, so a kernel reading it would change the result.
func (g *l12Gen) triangle(n, lda int) []float64 {
	a := g.buf(lda * n)
	for j := 0; j < n; j++ {
		if v := a[j*lda+j]; !math.IsNaN(v) && !math.IsInf(v, 0) {
			a[j*lda+j] = math.Copysign(1+math.Abs(v), v)
		}
	}
	return a
}

type triVariant struct {
	uplo  Uplo
	trans Transpose
	diag  Diag
}

func triVariants() []triVariant {
	var vs []triVariant
	for _, u := range []Uplo{Upper, Lower} {
		for _, tr := range []Transpose{NoTrans, Trans} {
			for _, d := range []Diag{NonUnit, Unit} {
				vs = append(vs, triVariant{u, tr, d})
			}
		}
	}
	return vs
}

func l12TrvCases() []l12Case {
	var cs []l12Case
	for n := 0; n <= 67; n++ {
		for vi, v := range triVariants() {
			for _, incX := range []int{1, 2} {
				for _, special := range []bool{false, true} {
					n, v, incX, special := n, v, incX, special
					off := (n + vi) % 4
					seed := int64(n*1000 + vi*10 + incX)
					cs = append(cs, l12Case{
						fmt.Sprintf("Dtrmv+Dtrsv/n=%d/%+v/inc=%d/special=%v", n, v, incX, special),
						func(t *testing.T) []float64 {
							g := newL12Gen(seed, special)
							lda := max(n, 1) + off
							a := g.triangle(n, lda)
							x := g.buf(off + vecLen(n, incX) + 1)
							z := append([]float64(nil), x...)
							Dtrmv(v.uplo, v.trans, v.diag, n, a, lda, x[off:], incX)
							Dtrsv(v.uplo, v.trans, v.diag, n, a, lda, z[off:], incX)
							return append(x, z...)
						}})
				}
			}
		}
	}
	return cs
}

func l12TrmCases() []l12Case {
	var cs []l12Case
	for _, m := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 67} {
		for _, n := range []int{1, 3, 5, 17} {
			for _, side := range []Side{Left, Right} {
				for vi, v := range triVariants() {
					for ai, alpha := range []float64{1, -0.7315926535897932, 5e-324} {
						for _, special := range []bool{false, true} {
							m, n, side, v, alpha, special := m, n, side, v, alpha, special
							off := (m + vi + ai) % 4
							seed := int64(m*100000 + n*1000 + int(side)*100 + vi*10 + ai)
							cs = append(cs, l12Case{
								fmt.Sprintf("Dtrmm+Dtrsm/m=%d/n=%d/side=%d/%+v/alpha=%g/special=%v", m, n, side, v, alpha, special),
								func(t *testing.T) []float64 {
									g := newL12Gen(seed, special)
									na := m
									if side == Right {
										na = n
									}
									lda := max(na, 1) + off
									ldb := max(m, 1) + off
									a := g.triangle(na, lda)
									b := g.buf(off + ldb*n)
									z := append([]float64(nil), b...)
									Dtrmm(side, v.uplo, v.trans, v.diag, m, n, alpha, a, lda, b[off:], ldb)
									Dtrsm(side, v.uplo, v.trans, v.diag, m, n, alpha, a, lda, z[off:], ldb)
									return append(b, z...)
								}})
						}
					}
				}
			}
		}
	}
	return cs
}

func TestLevel12KernelsBitIdentical(t *testing.T) {
	for _, group := range []struct {
		name  string
		cases []l12Case
	}{
		{"Daxpy", l12DaxpyCases()},
		{"Dgemv", l12GemvCases()},
		{"Dger", l12GerCases()},
		{"Dtrmv+Dtrsv", l12TrvCases()},
		{"Dtrmm+Dtrsm", l12TrmCases()},
	} {
		t.Run(group.name, func(t *testing.T) {
			cfgs := l12Configs()
			ref := make([]uint64, len(group.cases))
			for ci, cfg := range cfgs {
				restore := cfg.apply()
				for i, c := range group.cases {
					h := bitsHash(c.run(t))
					if ci == 0 {
						ref[i] = h
					} else if h != ref[i] {
						restore()
						t.Fatalf("%s: %v differs from %v: %s", c.name, cfg, cfgs[0], firstBitDiff(t, c, cfgs[0], cfg))
					}
				}
				restore()
			}
		})
	}
}

// firstBitDiff reruns c under both configurations and describes the first
// element whose bits differ.
func firstBitDiff(t *testing.T, c l12Case, a, b l12Config) string {
	restore := a.apply()
	want := c.run(t)
	restore()
	restore = b.apply()
	got := c.run(t)
	restore()
	if len(got) != len(want) {
		return fmt.Sprintf("output length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if contractBits(got[i]) != contractBits(want[i]) {
			return fmt.Sprintf("element %d = %v (%#016x), want %v (%#016x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return "hashes differ but no element does"
}
