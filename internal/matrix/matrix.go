// Package matrix provides the dense, column-major float64 matrix type that
// every other package in this repository builds on.
//
// Storage follows the LAPACK convention used by the paper: elements of a
// column are contiguous, and a matrix is described by (rows, cols, stride)
// over a flat backing slice. Sub-matrix views share the backing storage so
// that panel/trailing-matrix decompositions of the Hessenberg reduction can
// be expressed without copies, exactly as LAPACK and MAGMA do.
package matrix

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense column-major matrix of float64 values.
//
// The element (i, j) — zero-based row i, column j — is stored at
// Data[j*Stride+i]. Stride must be at least Rows. A Matrix may be a view
// into a larger matrix, in which case mutating it mutates the parent.
type Matrix struct {
	Rows   int
	Cols   int
	Stride int
	Data   []float64
}

// New allocates a zero-initialized r×c matrix with a tight stride.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: max(r, 1), Data: make([]float64, r*c)}
}

// Shape returns an r×c matrix with a tight stride and no storage (nil
// Data): the stand-in for a matrix whose values are never read, such as
// the input and host workspaces of a cost-only reduction. Its views are
// storage-less too, and any element access panics.
func Shape(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: max(r, 1)}
}

// FromColMajor wraps an existing column-major slice without copying.
// len(data) must be at least stride*(c-1)+r for non-empty matrices.
func FromColMajor(r, c, stride int, data []float64) *Matrix {
	if r < 0 || c < 0 || (r > 0 && stride < r) {
		panic(fmt.Sprintf("matrix: bad shape %dx%d stride %d", r, c, stride))
	}
	if r > 0 && c > 0 && len(data) < stride*(c-1)+r {
		panic(fmt.Sprintf("matrix: backing slice too short: %d < %d", len(data), stride*(c-1)+r))
	}
	return &Matrix{Rows: r, Cols: c, Stride: stride, Data: data}
}

// FromRows builds a matrix from row-major literal data, convenient in tests.
func FromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("matrix: ragged rows")
		}
		for j, v := range row {
			m.Set(i, j, v)
		}
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[j*m.Stride+i]
}

// Set stores v at (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[j*m.Stride+i] = v
}

// Add adds v to the element at (i, j).
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.Data[j*m.Stride+i] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Col returns the j-th column as a slice aliasing the matrix storage.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: column %d out of range %d", j, m.Cols))
	}
	if m.Rows == 0 {
		// A 0×c matrix has no backing storage to alias (New keeps a
		// minimum stride of 1 for BLAS compatibility).
		return nil
	}
	return m.Data[j*m.Stride : j*m.Stride+m.Rows]
}

// View returns the r×c sub-matrix whose top-left corner is (i, j).
// The view aliases m's storage; a view of a storage-less matrix (Shape)
// is storage-less. View is small enough to inline, so a view that does
// not outlive its caller costs no allocation.
func (m *Matrix) View(i, j, r, c int) *Matrix {
	if i|j|r|c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(viewError{m, i, j, r, c})
	}
	v := &Matrix{Rows: r, Cols: c, Stride: m.Stride}
	if r*c != 0 && m.Data != nil {
		v.Data = m.Data[j*m.Stride+i:]
	}
	return v
}

// viewError is the panic value of an out-of-range View: a plain value
// rather than a formatted string, which keeps View inlinable.
type viewError struct {
	m          *Matrix
	i, j, r, c int
}

func (e viewError) Error() string {
	return fmt.Sprintf("matrix: view (%d,%d)+%dx%d out of range %dx%d", e.i, e.j, e.r, e.c, e.m.Rows, e.m.Cols)
}

// Clone returns a deep copy of m with a tight stride.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	out.CopyFrom(m)
	return out
}

// CopyFrom copies src's elements into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("matrix: copy shape mismatch %dx%d <- %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for j := 0; j < m.Cols; j++ {
		copy(m.Col(j), src.Col(j))
	}
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = 0
		}
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = v
		}
	}
}

// Scale multiplies every element of m by alpha.
func (m *Matrix) Scale(alpha float64) {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] *= alpha
		}
	}
}

// T returns a newly allocated transpose of m.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Norm1 returns the 1-norm (maximum absolute column sum), NaN if any
// element is NaN.
func (m *Matrix) Norm1() float64 {
	maxSum := 0.0
	for j := 0; j < m.Cols; j++ {
		s := 0.0
		for _, v := range m.Col(j) {
			s += math.Abs(v)
		}
		maxSum = maxOrNaN(maxSum, s)
	}
	return maxSum
}

// maxOrNaN is max(a, b) that, unlike a comparison, never passes over a
// NaN: the NaN wins.
func maxOrNaN(a, b float64) float64 {
	if b > a || b != b {
		return b
	}
	return a
}

// NormInf returns the infinity-norm (maximum absolute row sum), NaN if
// any element is NaN.
func (m *Matrix) NormInf() float64 {
	if m.Rows == 0 {
		return 0
	}
	sums := make([]float64, m.Rows)
	for j := 0; j < m.Cols; j++ {
		for i, v := range m.Col(j) {
			sums[i] += math.Abs(v)
		}
	}
	maxSum := 0.0
	for _, s := range sums {
		maxSum = maxOrNaN(maxSum, s)
	}
	return maxSum
}

// NormFro returns the Frobenius norm.
func (m *Matrix) NormFro() float64 {
	// Two-pass scaling keeps the accumulation away from overflow/underflow.
	scale, ssq := 0.0, 1.0
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			if v == 0 {
				continue
			}
			a := math.Abs(v)
			if scale < a {
				ssq = 1 + ssq*(scale/a)*(scale/a)
				scale = a
			} else {
				ssq += (a / scale) * (a / scale)
			}
		}
	}
	return scale * math.Sqrt(ssq)
}

// MaxAbs returns the largest absolute element value, NaN if any element
// is NaN.
func (m *Matrix) MaxAbs() float64 {
	maxAbs := 0.0
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			maxAbs = maxOrNaN(maxAbs, math.Abs(v))
		}
	}
	return maxAbs
}

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Matrix) Trace() float64 {
	if m.Rows != m.Cols {
		panic("matrix: trace of non-square matrix")
	}
	t := 0.0
	for i := 0; i < m.Rows; i++ {
		t += m.At(i, i)
	}
	return t
}

// Equal reports whether m and other have identical shapes and elements.
func (m *Matrix) Equal(other *Matrix) bool {
	return m.EqualTol(other, 0)
}

// EqualTol reports whether m and other agree element-wise within tol
// (absolute difference; NaNs never compare equal).
func (m *Matrix) EqualTol(other *Matrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for j := 0; j < m.Cols; j++ {
		a, b := m.Col(j), other.Col(j)
		for i := range a {
			if math.IsNaN(a[i]) || math.IsNaN(b[i]) || math.Abs(a[i]-b[i]) > tol {
				return false
			}
		}
	}
	return true
}

// Sub returns a newly allocated m - other.
func (m *Matrix) Sub(other *Matrix) *Matrix {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("matrix: sub shape mismatch")
	}
	out := New(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		a, b, o := m.Col(j), other.Col(j), out.Col(j)
		for i := range a {
			o[i] = a[i] - b[i]
		}
	}
	return out
}

// RowSums returns the vector of row sums (A·e), the paper's row checksums.
func (m *Matrix) RowSums() []float64 {
	sums := make([]float64, m.Rows)
	for j := 0; j < m.Cols; j++ {
		for i, v := range m.Col(j) {
			sums[i] += v
		}
	}
	return sums
}

// ColSums returns the vector of column sums (eᵀ·A), the column checksums.
func (m *Matrix) ColSums() []float64 {
	sums := make([]float64, m.Cols)
	for j := 0; j < m.Cols; j++ {
		s := 0.0
		for _, v := range m.Col(j) {
			s += v
		}
		sums[j] = s
	}
	return sums
}

// IsUpperHessenberg reports whether every element below the first
// subdiagonal is at most tol in magnitude.
func (m *Matrix) IsUpperHessenberg(tol float64) bool {
	for j := 0; j < m.Cols; j++ {
		for i := j + 2; i < m.Rows; i++ {
			if math.Abs(m.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}

// String renders small matrices for debugging and test failure messages.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d\n", m.Rows, m.Cols)
	rmax, cmax := min(m.Rows, 12), min(m.Cols, 12)
	for i := 0; i < rmax; i++ {
		for j := 0; j < cmax; j++ {
			fmt.Fprintf(&b, "% 12.5g", m.At(i, j))
		}
		if cmax < m.Cols {
			b.WriteString(" ...")
		}
		b.WriteByte('\n')
	}
	if rmax < m.Rows {
		b.WriteString("...\n")
	}
	return b.String()
}
