package matrix

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewZeroInitialized(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 3 {
		t.Fatalf("bad shape: %dx%d stride %d", m.Rows, m.Cols, m.Stride)
	}
	for j := 0; j < 4; j++ {
		for i := 0; i < 3; i++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewEmpty(t *testing.T) {
	for _, dims := range [][2]int{{0, 0}, {0, 5}, {5, 0}} {
		m := New(dims[0], dims[1])
		if m.Rows != dims[0] || m.Cols != dims[1] {
			t.Errorf("New(%d,%d) shape mismatch", dims[0], dims[1])
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(-1, 3)
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(4, 5)
	v := 0.0
	for j := 0; j < 5; j++ {
		for i := 0; i < 4; i++ {
			m.Set(i, j, v)
			v++
		}
	}
	v = 0
	for j := 0; j < 5; j++ {
		for i := 0; i < 4; i++ {
			if m.At(i, j) != v {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, m.At(i, j), v)
			}
			v++
		}
	}
}

func TestColumnMajorLayout(t *testing.T) {
	m := New(3, 2)
	m.Set(2, 1, 42)
	if m.Data[1*3+2] != 42 {
		t.Fatalf("element (2,1) not at offset stride*j+i: data=%v", m.Data)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(0, 0) != 1 || m.At(1, 2) != 6 || m.At(0, 2) != 3 {
		t.Fatalf("contents wrong: %v", m)
	}
}

func TestFromColMajorAliases(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := FromColMajor(2, 3, 2, data)
	m.Set(1, 2, 99)
	if data[5] != 99 {
		t.Fatal("FromColMajor must alias the provided slice")
	}
}

func TestViewAliasesParent(t *testing.T) {
	m := New(5, 5)
	v := m.View(1, 2, 3, 2)
	v.Set(0, 0, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("view write did not reach parent")
	}
	m.Set(3, 3, 9)
	if v.At(2, 1) != 9 {
		t.Fatal("parent write not visible through view")
	}
}

func TestViewOfView(t *testing.T) {
	m := New(6, 6)
	for j := 0; j < 6; j++ {
		for i := 0; i < 6; i++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	v := m.View(1, 1, 4, 4).View(1, 1, 2, 2)
	if v.At(0, 0) != m.At(2, 2) || v.At(1, 1) != m.At(3, 3) {
		t.Fatal("nested view misaligned")
	}
}

func TestViewBoundsPanic(t *testing.T) {
	m := New(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range view")
		}
	}()
	m.View(1, 1, 3, 3)
}

func TestShapeIsStorageless(t *testing.T) {
	m := Shape(5, 3)
	if m.Rows != 5 || m.Cols != 3 || m.Stride != 5 || m.Data != nil {
		t.Fatalf("Shape(5, 3) = %dx%d stride %d with %d values", m.Rows, m.Cols, m.Stride, len(m.Data))
	}
	v := m.View(1, 1, 3, 2)
	if v.Rows != 3 || v.Cols != 2 || v.Stride != 5 || v.Data != nil {
		t.Fatalf("view of a shape: %dx%d stride %d with %d values", v.Rows, v.Cols, v.Stride, len(v.Data))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("element access on a storage-less matrix must panic")
		}
	}()
	v.At(0, 0)
}

func TestEmptyView(t *testing.T) {
	m := New(3, 3)
	v := m.View(1, 1, 0, 2)
	if v.Rows != 0 || v.Cols != 2 {
		t.Fatal("empty view shape wrong")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := Random(4, 4, 1)
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal to source")
	}
	c.Set(0, 0, 123)
	if m.At(0, 0) == 123 {
		t.Fatal("clone shares storage with source")
	}
}

func TestCopyFromMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape mismatch panic")
		}
	}()
	New(2, 2).CopyFrom(New(3, 3))
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestNorms(t *testing.T) {
	m := FromRows([][]float64{{1, -2}, {-3, 4}})
	if got := m.Norm1(); got != 6 {
		t.Errorf("Norm1 = %v, want 6", got)
	}
	if got := m.NormInf(); got != 7 {
		t.Errorf("NormInf = %v, want 7", got)
	}
	want := math.Sqrt(1 + 4 + 9 + 16)
	if got := m.NormFro(); math.Abs(got-want) > 1e-14 {
		t.Errorf("NormFro = %v, want %v", got, want)
	}
	if got := m.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %v, want 4", got)
	}
}

// TestNormsPropagateNaN: a NaN anywhere makes every norm NaN. A
// comparison-based max passes over it (NaN > x is false), so without care
// FromRows({{1, NaN}, {2, 0}}) reads as Norm1 3, NormInf 2, MaxAbs 2.
func TestNormsPropagateNaN(t *testing.T) {
	nan := math.NaN()
	for _, rows := range [][][]float64{
		{{1, nan}, {2, 0}},
		{{nan, 1}, {2, 0}},
		{{5, 1}, {2, nan}},
	} {
		m := FromRows(rows)
		for name, got := range map[string]float64{
			"Norm1": m.Norm1(), "NormInf": m.NormInf(), "NormFro": m.NormFro(), "MaxAbs": m.MaxAbs(),
		} {
			if !math.IsNaN(got) {
				t.Errorf("%v: %s = %v, want NaN", rows, name, got)
			}
		}
	}
}

func TestNormFroExtremeScale(t *testing.T) {
	m := New(1, 2)
	m.Set(0, 0, 1e200)
	m.Set(0, 1, 1e200)
	want := 1e200 * math.Sqrt(2)
	if got := m.NormFro(); math.Abs(got-want)/want > 1e-14 {
		t.Errorf("NormFro overflowed: %v want %v", got, want)
	}
}

func TestTrace(t *testing.T) {
	m := FromRows([][]float64{{1, 9}, {9, 2}})
	if m.Trace() != 3 {
		t.Fatalf("trace = %v", m.Trace())
	}
}

func TestRowColSums(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	rs := m.RowSums()
	cs := m.ColSums()
	if rs[0] != 3 || rs[1] != 7 {
		t.Errorf("row sums %v", rs)
	}
	if cs[0] != 4 || cs[1] != 6 {
		t.Errorf("col sums %v", cs)
	}
}

func TestSub(t *testing.T) {
	a := FromRows([][]float64{{5, 6}, {7, 8}})
	b := FromRows([][]float64{{1, 2}, {3, 4}})
	d := a.Sub(b)
	if d.At(0, 0) != 4 || d.At(1, 1) != 4 {
		t.Fatalf("sub wrong: %v", d)
	}
}

func TestEqualTol(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1, 2 + 1e-12}})
	if !a.EqualTol(b, 1e-10) {
		t.Error("should be equal within tol")
	}
	if a.EqualTol(b, 1e-14) {
		t.Error("should differ beyond tol")
	}
	if a.EqualTol(FromRows([][]float64{{1, 2, 3}}), 1) {
		t.Error("shape mismatch must not be equal")
	}
}

func TestEqualNaN(t *testing.T) {
	a := FromRows([][]float64{{math.NaN()}})
	b := FromRows([][]float64{{math.NaN()}})
	if a.Equal(b) {
		t.Error("NaN must not compare equal")
	}
}

func TestIsUpperHessenberg(t *testing.T) {
	h := FromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{0, 7, 8},
	})
	if !h.IsUpperHessenberg(0) {
		t.Error("valid Hessenberg rejected")
	}
	h.Set(2, 0, 1e-3)
	if h.IsUpperHessenberg(1e-6) {
		t.Error("sub-subdiagonal element accepted")
	}
	if !h.IsUpperHessenberg(1e-2) {
		t.Error("tolerance not honored")
	}
}

func TestScaleFillZero(t *testing.T) {
	m := Random(3, 3, 7)
	m.Fill(2)
	m.Scale(3)
	for j := 0; j < 3; j++ {
		for i := 0; i < 3; i++ {
			if m.At(i, j) != 6 {
				t.Fatalf("(%d,%d)=%v", i, j, m.At(i, j))
			}
		}
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatal("Zero left nonzero entries")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(8, 8, 42)
	b := Random(8, 8, 42)
	if !a.Equal(b) {
		t.Fatal("same seed must generate identical matrices")
	}
	c := Random(8, 8, 43)
	if a.Equal(c) {
		t.Fatal("different seeds should differ")
	}
}

// RandomSymmetric is Random's lower triangle mirrored into the upper one.
func TestRandomSymmetric(t *testing.T) {
	const n = 9
	s, r := RandomSymmetric(n, 5), Random(n, n, 5)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if s.At(i, j) != r.At(i, j) || s.At(j, i) != r.At(i, j) {
				t.Fatalf("(%d,%d): got %v/%v, want %v", i, j, s.At(i, j), s.At(j, i), r.At(i, j))
			}
		}
	}
}

func TestRandomRange(t *testing.T) {
	m := Random(50, 50, 3)
	for j := 0; j < 50; j++ {
		for _, v := range m.Col(j) {
			if v < -1 || v >= 1 {
				t.Fatalf("uniform value out of range: %v", v)
			}
		}
	}
}

func TestRandomNormalMoments(t *testing.T) {
	m := RandomNormal(200, 200, 5)
	sum, sumSq := 0.0, 0.0
	n := float64(m.Rows * m.Cols)
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			sum += v
			sumSq += v * v
		}
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestRandomDiagDominant(t *testing.T) {
	m := RandomDiagDominant(10, 9)
	for i := 0; i < 10; i++ {
		off := 0.0
		for j := 0; j < 10; j++ {
			if j != i {
				off += math.Abs(m.At(i, j))
			}
		}
		if math.Abs(m.At(i, i)) <= off {
			t.Fatalf("row %d not diagonally dominant", i)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	rng := NewRNG(11)
	for i := 0; i < 1000; i++ {
		v := rng.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestDiffStats(t *testing.T) {
	want := New(4, 4)
	got := want.Clone()
	got.Set(1, 2, 5)
	got.Set(3, 2, 1e-15)
	st := Diff(want, got, 1e-12)
	if st.Polluted != 1 {
		t.Fatalf("polluted = %d, want 1", st.Polluted)
	}
	if len(st.PollutedRows) != 1 || st.PollutedRows[0] != 1 {
		t.Fatalf("polluted rows %v", st.PollutedRows)
	}
	if len(st.PollutedCols) != 1 || st.PollutedCols[0] != 2 {
		t.Fatalf("polluted cols %v", st.PollutedCols)
	}
	if st.MaxAbs != 5 {
		t.Fatalf("max abs %v", st.MaxAbs)
	}
}

func TestHeatMapMarksPollution(t *testing.T) {
	want := New(16, 16)
	got := want.Clone()
	got.Set(0, 0, 10)
	hm := HeatMap(want, got, 16)
	if !strings.Contains(hm, "#") {
		t.Fatalf("heat map missing '#':\n%s", hm)
	}
	clean := HeatMap(want, want.Clone(), 16)
	// Skip the legend line; only the map body must be blank.
	body := clean[strings.IndexByte(clean, '\n')+1:]
	if strings.ContainsAny(body, ".:*#") {
		t.Fatalf("clean heat map should be blank:\n%s", clean)
	}
}

// Property: transposing twice is the identity.
func TestPropTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		r := 1 + int(seed%17)
		c := 1 + int((seed>>8)%17)
		m := Random(r, c, seed)
		return m.T().T().Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the sum of row sums equals the sum of column sums (this identity
// is the basis of the paper's error-detection test S_re == S_ce).
func TestPropRowColSumIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := 1 + int(seed%19)
		c := 1 + int((seed>>5)%19)
		m := Random(r, c, seed)
		sr, sc := 0.0, 0.0
		for _, v := range m.RowSums() {
			sr += v
		}
		for _, v := range m.ColSums() {
			sc += v
		}
		return math.Abs(sr-sc) < 1e-10*(1+math.Abs(sr))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Norm1(A) == NormInf(Aᵀ).
func TestPropNorm1InfDual(t *testing.T) {
	f := func(seed uint64) bool {
		r := 1 + int(seed%13)
		c := 1 + int((seed>>7)%13)
		m := Random(r, c, seed)
		return math.Abs(m.Norm1()-m.T().NormInf()) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
