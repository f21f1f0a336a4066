package lapack

import (
	"errors"
	"math"
	"sort"

	"repro/internal/matrix"
)

// ErrNoConvergence is returned by Dhseqr when an eigenvalue fails to
// converge within the iteration budget.
var ErrNoConvergence = errors.New("lapack: eigenvalue iteration did not converge")

const macheps = 2.220446049250313e-16

// Dhseqr computes all eigenvalues of the n×n upper Hessenberg matrix h
// with the implicit Francis double-shift QR iteration (EISPACK HQR/HQR2).
// Real parts are returned in wr, imaginary parts in wi; a complex
// conjugate pair occupies consecutive positions, positive imaginary part
// first.
//
// With z == nil only the eigenvalues are computed: every transformation
// stays inside the active unreduced block, and h is destroyed. With
// z != nil the transformations are applied to all of h and accumulated
// into z, which must enter holding the orthogonal factor of the
// reduction (Dorghr's Q, or I). On exit A = Z·T·Zᵀ: h holds the
// quasi-triangular real Schur factor T (1×1 and 2×2 diagonal blocks with
// the eigenvalues written back, zeros below them) and z the Schur vectors.
func Dhseqr(n int, h, z *matrix.Matrix, wr, wi []float64) error {
	if n == 0 {
		return nil
	}
	hd, ldh := h.Data, h.Stride
	at := func(i, j int) float64 { return hd[j*ldh+i] }
	set := func(i, j int, v float64) { hd[j*ldh+i] = v }
	col := func(j, lo, hi int) []float64 { return hd[j*ldh+lo : j*ldh+hi+1] }
	schur := z != nil
	var zcol func(j int) []float64
	if schur {
		zcol = func(j int) []float64 { return z.Data[j*z.Stride : j*z.Stride+n] }
	}

	norm := hessNorm(n, h)
	if norm == 0 {
		clear(wr[:n])
		clear(wi[:n])
		return nil
	}

	en := n - 1
	t := 0.0
	var p, q, r, x, y, zz, w, s float64
	for en >= 0 {
		its := 0
		na := en - 1
		for {
			// Look for a single small subdiagonal element.
			var l int
			for l = en; l >= 1; l-- {
				s = math.Abs(at(l-1, l-1)) + math.Abs(at(l, l))
				if s == 0 {
					s = norm
				}
				if math.Abs(at(l, l-1)) <= macheps*s {
					set(l, l-1, 0)
					break
				}
			}
			x = at(en, en)
			if l == en {
				// One root found; write it back for the Schur form.
				set(en, en, x+t)
				wr[en] = x + t
				wi[en] = 0
				en--
				break
			}
			y = at(na, na)
			w = at(en, na) * at(na, en)
			if l == na {
				// Two roots found from the trailing 2×2 block.
				p = (y - x) / 2
				q = p*p + w
				zz = math.Sqrt(math.Abs(q))
				x += t
				set(en, en, x)
				set(na, na, y+t)
				if q < 0 {
					// Complex conjugate pair.
					wr[na] = x + p
					wr[en] = x + p
					wi[na] = zz
					wi[en] = -zz
					en -= 2
					break
				}
				// Real pair.
				zz = p + sign(zz, p)
				wr[na] = x + zz
				wr[en] = wr[na]
				if zz != 0 {
					wr[en] = x - w/zz
				}
				wi[na], wi[en] = 0, 0
				if schur {
					// Rotate to triangularize the 2×2 block.
					x = at(en, na)
					s = math.Abs(x) + math.Abs(zz)
					p = x / s
					q = zz / s
					r = math.Sqrt(p*p + q*q)
					p /= r
					q /= r
					for j := na; j < n; j++ {
						zz = at(na, j)
						set(na, j, q*zz+p*at(en, j))
						set(en, j, q*at(en, j)-p*zz)
					}
					rotateCols(col(na, 0, en), col(en, 0, en), p, q)
					rotateCols(zcol(na), zcol(en), p, q)
				}
				en -= 2
				break
			}
			// No roots yet: perform a double-shift QR sweep.
			if its == 40 {
				return ErrNoConvergence
			}
			if its == 10 || its == 20 || its == 30 {
				// Exceptional shift to break cycling.
				t += x
				for i := 0; i <= en; i++ {
					set(i, i, at(i, i)-x)
				}
				s = math.Abs(at(en, na)) + math.Abs(at(na, en-2))
				y = 0.75 * s
				x = y
				w = -0.4375 * s * s
			}
			its++
			// Look for two consecutive small subdiagonal elements to
			// start the sweep at row m.
			var m int
			for m = en - 2; m >= l; m-- {
				zz = at(m, m)
				r = x - zz
				s = y - zz
				p = (r*s-w)/at(m+1, m) + at(m, m+1)
				q = at(m+1, m+1) - zz - r - s
				r = at(m+2, m+1)
				s = math.Abs(p) + math.Abs(q) + math.Abs(r)
				p /= s
				q /= s
				r /= s
				if m == l {
					break
				}
				u := math.Abs(at(m, m-1)) * (math.Abs(q) + math.Abs(r))
				v := math.Abs(p) * (math.Abs(at(m-1, m-1)) + math.Abs(zz) + math.Abs(at(m+1, m+1)))
				if u <= macheps*v {
					break
				}
			}
			for i := m + 2; i <= en; i++ {
				set(i, i-2, 0)
				if i != m+2 {
					set(i, i-3, 0)
				}
			}
			// The sweep's row updates reach column last and its column
			// updates start at row first: the active block [l, en] alone
			// for eigenvalues, all of h for the Schur form.
			first, last := l, en
			if schur {
				first, last = 0, n-1
			}
			// Double QR step: chase the bulge from row m to row na.
			for k := m; k <= na; k++ {
				notlast := k != na
				if k != m {
					p = at(k, k-1)
					q = at(k+1, k-1)
					r = 0
					if notlast {
						r = at(k+2, k-1)
					}
					x = math.Abs(p) + math.Abs(q) + math.Abs(r)
					if x == 0 {
						continue
					}
					p /= x
					q /= x
					r /= x
				}
				s = sign(math.Sqrt(p*p+q*q+r*r), p)
				if s == 0 {
					continue
				}
				if k != m {
					set(k, k-1, -s*x)
				} else if l != m {
					set(k, k-1, -at(k, k-1))
				}
				p += s
				x = p / s
				y = q / s
				zz = r / s
				q /= p
				r /= p
				top := min(en, k+3)
				if notlast {
					for j := k; j <= last; j++ {
						c := col(j, k, k+2)
						pp := c[0] + q*c[1] + r*c[2]
						c[0] -= pp * x
						c[1] -= pp * y
						c[2] -= pp * zz
					}
					reflect3(col(k, first, top), col(k+1, first, top), col(k+2, first, top), x, y, zz, q, r)
					if schur {
						reflect3(zcol(k), zcol(k+1), zcol(k+2), x, y, zz, q, r)
					}
				} else {
					for j := k; j <= last; j++ {
						c := col(j, k, k+1)
						pp := c[0] + q*c[1]
						c[0] -= pp * x
						c[1] -= pp * y
					}
					reflect2(col(k, first, top), col(k+1, first, top), x, y, q)
					if schur {
						reflect2(zcol(k), zcol(k+1), x, y, q)
					}
				}
			}
		}
	}

	if schur {
		// Clear the bulge remnants below the quasi-triangular band (the
		// iteration never reads them again; their exact values are zero)
		// and the roundoff-level subdiagonals of deflated real blocks.
		// Complex pairs (wi > 0 marks the first member) keep their 2×2
		// coupling.
		for j := 0; j+2 < n; j++ {
			clear(col(j, j+2, n-1))
		}
		for i := 1; i < n; i++ {
			if wi[i-1] <= 0 {
				set(i, i-1, 0)
			}
		}
	}
	return nil
}

// hessNorm is the sum of |h(i,j)| over the Hessenberg band, the scale of
// the deflation and back-substitution tests.
func hessNorm(n int, h *matrix.Matrix) float64 {
	norm := 0.0
	for i := 0; i < n; i++ {
		for j := max(i-1, 0); j < n; j++ {
			norm += math.Abs(h.Data[j*h.Stride+i])
		}
	}
	return norm
}

// reflect3 applies a bulge-chasing reflector from the right to the
// column triple (c0, c1, c2).
func reflect3(c0, c1, c2 []float64, x, y, zz, q, r float64) {
	c1, c2 = c1[:len(c0)], c2[:len(c0)]
	for i := range c0 {
		pp := x*c0[i] + y*c1[i] + zz*c2[i]
		c0[i] -= pp
		c1[i] -= pp * q
		c2[i] -= pp * r
	}
}

// reflect2 is reflect3 for the sweep's last, two-row reflector.
func reflect2(c0, c1 []float64, x, y, q float64) {
	c1 = c1[:len(c0)]
	for i := range c0 {
		pp := x*c0[i] + y*c1[i]
		c0[i] -= pp
		c1[i] -= pp * q
	}
}

// rotateCols applies the plane rotation (p, q) to the column pair (a, b).
func rotateCols(a, b []float64, p, q float64) {
	b = b[:len(a)]
	for i := range a {
		v := a[i]
		a[i] = q*v + p*b[i]
		b[i] = q*b[i] - p*v
	}
}

// Eig is one eigenvalue; Im != 0 marks one member of a conjugate pair.
type Eig struct {
	Re, Im float64
}

// Eigenvalues computes all eigenvalues of a general square matrix by
// reducing it to Hessenberg form (blocked, block size nb) and running the
// Francis QR iteration. a is not modified.
func Eigenvalues(a *matrix.Matrix, nb int) ([]Eig, error) {
	n := a.Rows
	if n != a.Cols {
		return nil, errors.New("lapack: Eigenvalues needs a square matrix")
	}
	work := a.Clone()
	tau := make([]float64, max(n-1, 1))
	Dgehrd(n, nb, work.Data, work.Stride, tau)
	return HessEigenvalues(HessFromPacked(n, work.Data, work.Stride))
}

// HessEigenvalues returns the eigenvalues of the upper Hessenberg matrix
// h in SortEigs order. h is destroyed.
func HessEigenvalues(h *matrix.Matrix) ([]Eig, error) {
	n := h.Rows
	wr := make([]float64, n)
	wi := make([]float64, n)
	if err := Dhseqr(n, h, nil, wr, wi); err != nil {
		return nil, err
	}
	out := make([]Eig, n)
	for i := range out {
		out[i] = Eig{Re: wr[i], Im: wi[i]}
	}
	SortEigs(out)
	return out, nil
}

// SortEigs orders eigenvalues by real part, then imaginary part, giving
// deterministic output for comparisons and reports.
func SortEigs(e []Eig) {
	sort.Slice(e, func(i, j int) bool {
		if e[i].Re != e[j].Re {
			return e[i].Re < e[j].Re
		}
		return e[i].Im < e[j].Im
	})
}
