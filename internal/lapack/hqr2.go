package lapack

import (
	"errors"
	"math"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// cdiv computes (ar + ai·i) / (br + bi·i) with scaling.
func cdiv(ar, ai, br, bi float64) (cr, ci float64) {
	s := math.Abs(br) + math.Abs(bi)
	ars := ar / s
	ais := ai / s
	brs := br / s
	bis := bi / s
	d := brs*brs + bis*bis
	return (ars*brs + ais*bis) / d, (ais*brs - ars*bis) / d
}

// backSubstitute solves the quasi-triangular system for the eigenvectors
// (EISPACK HQR2's second half) and multiplies by the accumulated z. h and
// z are Dhseqr's Schur form and vectors; norm is hessNorm of the
// Hessenberg matrix Dhseqr started from. A zero matrix (norm == 0) is
// left as it is: every column of z is already an eigenvector.
func backSubstitute(n int, h, z *matrix.Matrix, wr, wi []float64, norm float64) {
	if norm == 0 {
		return
	}
	hd, ldh := h.Data, h.Stride
	at := func(i, j int) float64 { return hd[j*ldh+i] }
	set := func(i, j int, v float64) { hd[j*ldh+i] = v }
	var p, q, r, s, t, w, x, y, zz, ra, sa float64
	for en := n - 1; en >= 0; en-- {
		p = wr[en]
		q = wi[en]
		na := en - 1
		switch {
		case q == 0:
			// Real vector.
			m := en
			set(en, en, 1)
			for i := en - 1; i >= 0; i-- {
				w = at(i, i) - p
				r = 0
				for j := m; j <= en; j++ {
					r += at(i, j) * at(j, en)
				}
				if wi[i] < 0 {
					zz = w
					s = r
					continue
				}
				m = i
				if wi[i] == 0 {
					t = w
					if t == 0 {
						t = macheps * norm
					}
					set(i, en, -r/t)
				} else {
					// Solve the 2×2 block rows (i, i+1).
					x = at(i, i+1)
					y = at(i+1, i)
					q2 := (wr[i]-p)*(wr[i]-p) + wi[i]*wi[i]
					t = (x*s - zz*r) / q2
					set(i, en, t)
					if math.Abs(x) > math.Abs(zz) {
						set(i+1, en, (-r-w*t)/x)
					} else {
						set(i+1, en, (-s-y*t)/zz)
					}
				}
				// Overflow control.
				t = math.Abs(at(i, en))
				if t != 0 && macheps*t*t > 1 {
					for j := i; j <= en; j++ {
						set(j, en, at(j, en)/t)
					}
				}
			}
		case q < 0:
			// Complex vector for the pair (na, en); q < 0 marks the
			// second member, whose columns hold (real, imag) parts.
			m := na
			if math.Abs(at(en, na)) > math.Abs(at(na, en)) {
				set(na, na, q/at(en, na))
				set(na, en, -(at(en, en)-p)/at(en, na))
			} else {
				cr, ci := cdiv(0, -at(na, en), at(na, na)-p, q)
				set(na, na, cr)
				set(na, en, ci)
			}
			set(en, na, 0)
			set(en, en, 1)
			for i := na - 1; i >= 0; i-- {
				w = at(i, i) - p
				ra = 0
				sa = 0
				for j := m; j <= en; j++ {
					ra += at(i, j) * at(j, na)
					sa += at(i, j) * at(j, en)
				}
				if wi[i] < 0 {
					zz = w
					r = ra
					s = sa
					continue
				}
				m = i
				if wi[i] == 0 {
					cr, ci := cdiv(-ra, -sa, w, q)
					set(i, na, cr)
					set(i, en, ci)
				} else {
					// Solve complex 2×2 block.
					x = at(i, i+1)
					y = at(i+1, i)
					vr := (wr[i]-p)*(wr[i]-p) + wi[i]*wi[i] - q*q
					vi := (wr[i] - p) * 2 * q
					if vr == 0 && vi == 0 {
						vr = macheps * norm * (math.Abs(w) + math.Abs(q) + math.Abs(x) + math.Abs(y) + math.Abs(zz))
					}
					cr, ci := cdiv(x*r-zz*ra+q*sa, x*s-zz*sa-q*ra, vr, vi)
					set(i, na, cr)
					set(i, en, ci)
					if math.Abs(x) > math.Abs(zz)+math.Abs(q) {
						set(i+1, na, (-ra-w*at(i, na)+q*at(i, en))/x)
						set(i+1, en, (-sa-w*at(i, en)-q*at(i, na))/x)
					} else {
						cr, ci := cdiv(-r-y*at(i, na), -s-y*at(i, en), zz, q)
						set(i+1, na, cr)
						set(i+1, en, ci)
					}
				}
				// Overflow control.
				t = math.Max(math.Abs(at(i, na)), math.Abs(at(i, en)))
				if t != 0 && macheps*t*t > 1 {
					for j := i; j <= en; j++ {
						set(j, na, at(j, na)/t)
						set(j, en, at(j, en)/t)
					}
				}
			}
		}
	}
	// Multiply by the accumulated transformation: z := z · (vectors in h).
	// Column j of the product needs z's columns 0..j only, so filling the
	// columns right to left reads each before it is overwritten.
	sum := make([]float64, n)
	for j := n - 1; j >= 0; j-- {
		clear(sum)
		for k, hkj := range hd[j*ldh : j*ldh+j+1] {
			for i, zik := range z.Col(k) {
				sum[i] += zik * hkj
			}
		}
		copy(z.Col(j), sum)
	}
}

// SchurEigen holds a full eigendecomposition from the Schur path.
type SchurEigen struct {
	// Values: all n eigenvalues.
	Values []Eig
	// Vectors: column j of VR (+ i·VI for complex pairs) is the right
	// eigenvector of Values[j]. For a complex pair (q>0 first), columns
	// j and j+1 of the matrix hold the real and imaginary parts, and
	// Vectors stores them expanded per eigenvalue.
	VR, VI *matrix.Matrix
}

// Eigen computes the complete eigendecomposition of a general square
// matrix: Hessenberg reduction, Dhseqr's Schur form and back-substitution
// give all eigenvalues with right eigenvectors, including complex pairs.
// The real eigenvectors are the VR columns whose eigenvalue has Im == 0.
// a is not modified.
func Eigen(a *matrix.Matrix, nb int) (*SchurEigen, error) {
	n := a.Rows
	if n != a.Cols {
		return nil, errors.New("lapack: Eigen needs a square matrix")
	}
	packed := a.Clone()
	tau := make([]float64, max(n-1, 1))
	Dgehrd(n, nb, packed.Data, packed.Stride, tau)
	h := HessFromPacked(n, packed.Data, packed.Stride)
	z := Dorghr(n, packed.Data, packed.Stride, tau)
	norm := hessNorm(n, h)
	wr := make([]float64, n)
	wi := make([]float64, n)
	if err := Dhseqr(n, h, z, wr, wi); err != nil {
		return nil, err
	}
	backSubstitute(n, h, z, wr, wi, norm)
	out := &SchurEigen{
		Values: make([]Eig, n),
		VR:     matrix.New(n, n),
		VI:     matrix.New(n, n),
	}
	for j := 0; j < n; j++ {
		out.Values[j] = Eig{Re: wr[j], Im: wi[j]}
		vr, vi := out.VR.Col(j), out.VI.Col(j)
		switch {
		case wi[j] == 0:
			copy(vr, z.Col(j))
		case wi[j] > 0:
			// First of a pair: x = z(:,j) + i·z(:,j+1).
			copy(vr, z.Col(j))
			copy(vi, z.Col(j+1))
		default:
			// Conjugate: x̄ = z(:,j-1) − i·z(:,j).
			copy(vr, z.Col(j-1))
			for i, v := range z.Col(j) {
				vi[i] = -v
			}
		}
	}
	return out, nil
}

// EigResidual returns ‖A·x − λ·x‖₂ / ‖x‖₂ for the j-th (possibly complex)
// eigenpair of e.
func (e *SchurEigen) EigResidual(a *matrix.Matrix, j int) float64 {
	n := a.Rows
	xr := make([]float64, n)
	xi := make([]float64, n)
	for i := 0; i < n; i++ {
		xr[i] = e.VR.At(i, j)
		xi[i] = e.VI.At(i, j)
	}
	lam := e.Values[j]
	// y = A·x − λ·x, complex.
	yr := make([]float64, n)
	yi := make([]float64, n)
	blas.Dgemv(blas.NoTrans, n, n, 1, a.Data, a.Stride, xr, 1, 0, yr, 1)
	blas.Dgemv(blas.NoTrans, n, n, 1, a.Data, a.Stride, xi, 1, 0, yi, 1)
	for i := 0; i < n; i++ {
		yr[i] -= lam.Re*xr[i] - lam.Im*xi[i]
		yi[i] -= lam.Re*xi[i] + lam.Im*xr[i]
	}
	num := math.Hypot(blas.Dnrm2(n, yr, 1), blas.Dnrm2(n, yi, 1))
	den := math.Hypot(blas.Dnrm2(n, xr, 1), blas.Dnrm2(n, xi, 1))
	if den == 0 {
		return math.Inf(1)
	}
	return num / den
}
