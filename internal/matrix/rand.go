package matrix

// Deterministic pseudo-random matrix generation. The experiments in the
// paper run over specific matrix sizes with "application agnostic" dense
// inputs; we use a SplitMix64-derived generator so that every experiment and
// test is reproducible from a seed without importing math/rand (keeping the
// dependency surface minimal and the sequence stable across Go releases).

// RNG is a small deterministic pseudo-random number generator (SplitMix64).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns an approximately standard-normal value using the sum
// of 12 uniforms (Irwin–Hall); adequate for generating test matrices.
func (r *RNG) NormFloat64() float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("matrix: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Random returns an r×c matrix with uniform entries in [-1, 1).
func Random(r, c int, seed uint64) *Matrix {
	rng := NewRNG(seed)
	m := New(r, c)
	for j := 0; j < c; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = 2*rng.Float64() - 1
		}
	}
	return m
}

// RandomSymmetric returns Random(n, n, seed) with its lower triangle
// mirrored into the upper one: the seeded input of the symmetric
// (tridiagonal) reduction.
func RandomSymmetric(n int, seed uint64) *Matrix {
	m := Random(n, n, seed)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			m.Set(i, j, m.At(j, i))
		}
	}
	return m
}

// RandomNormal returns an r×c matrix with approximately N(0,1) entries.
func RandomNormal(r, c int, seed uint64) *Matrix {
	rng := NewRNG(seed)
	m := New(r, c)
	for j := 0; j < c; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = rng.NormFloat64()
		}
	}
	return m
}

// RandomDiagDominant returns a square matrix with uniform entries whose
// diagonal is boosted so the matrix is diagonally dominant; handy for
// workloads that later feed linear solves.
func RandomDiagDominant(n int, seed uint64) *Matrix {
	m := Random(n, n, seed)
	for i := 0; i < n; i++ {
		m.Add(i, i, float64(n))
	}
	return m
}
