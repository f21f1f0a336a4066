package lapack

import "math"

// Dgebal balances a general square matrix in place (the scaling phase of
// netlib DGEBAL, job='S'): a diagonal similarity D⁻¹·A·D is applied so
// that row and column norms become comparable, which can dramatically
// improve the accuracy of subsequently computed eigenvalues. The returned
// scale vector holds the applied diagonal entries (D(i,i)); eigenvalues
// are unchanged by the similarity.
//
// (The permutation phase of DGEBAL, which isolates eigenvalues connected
// through triangular structure, is not needed for the dense random
// workloads of this repository and is omitted.)
func Dgebal(n int, a []float64, lda int) []float64 {
	scale := make([]float64, n)
	for i := range scale {
		scale[i] = 1
	}
	if n <= 1 {
		return scale
	}
	const (
		radix  = 2.0
		sclfac = radix
		factor = 0.95
	)
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			// 1-norms of row i and column i, excluding the diagonal.
			c, r := 0.0, 0.0
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				c += math.Abs(a[i*lda+j]) // column i
				r += math.Abs(a[j*lda+i]) // row i
			}
			if c == 0 || r == 0 {
				continue
			}
			// Find f = 2^k bringing the norms together (netlib's loops
			// move c and r toward each other; sfmin2/sfmax2 guards are
			// replaced by an iteration bound adequate for float64).
			g := r / sclfac
			f := 1.0
			s := c + r
			for iter := 0; c < g && iter < 1100; iter++ {
				f *= sclfac
				c *= sclfac
				r /= sclfac
				g /= sclfac
			}
			g = c / sclfac
			for iter := 0; g >= r && iter < 1100; iter++ {
				f /= sclfac
				c /= sclfac
				g /= sclfac
				r *= sclfac
			}
			if f != 1 && c+r < factor*s {
				changed = true
				scale[i] *= f
				// Row i := row i / f ; column i := column i * f.
				for j := 0; j < n; j++ {
					a[j*lda+i] /= f
					a[i*lda+j] *= f
				}
			}
		}
	}
	return scale
}

// BalancedEigenvalues computes eigenvalues with balancing before the
// Hessenberg reduction, as LAPACK's DGEEV driver does.
func BalancedEigenvalues(aData []float64, n, lda, nb int) ([]Eig, error) {
	work := make([]float64, n*n)
	for j := 0; j < n; j++ {
		copy(work[j*n:j*n+n], aData[j*lda:j*lda+n])
	}
	Dgebal(n, work, n)
	tau := make([]float64, max(n-1, 1))
	Dgehrd(n, nb, work, n, tau)
	return HessEigenvalues(HessFromPacked(n, work, n))
}
