package bench

import (
	"sort"
	"time"
)

// Every wall-clock figure in a measured artifact comes from paired: two
// arms run in pairs, alternating which goes first, so drift (warm-up, CPU
// frequency, a neighbour's load) cannot favour either arm, and the result
// is a median with its interquartile range, never a single best run.

// Spread summarizes repeated measurements: the median and the
// interquartile range [Q1, Q3].
type Spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// spreadOf returns the quartiles of xs, interpolating linearly between
// order statistics.
func spreadOf(xs []float64) Spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		h := p * float64(len(s)-1)
		i := int(h)
		if i+1 == len(s) {
			return s[i]
		}
		return s[i] + (h-float64(i))*(s[i+1]-s[i])
	}
	return Spread{Median: q(0.5), Q1: q(0.25), Q3: q(0.75)}
}

// pct maps a spread of ratios to percent over one.
func (s Spread) pct() Spread {
	return Spread{Median: 100 * (s.Median - 1), Q1: 100 * (s.Q1 - 1), Q3: 100 * (s.Q3 - 1)}
}

// An arm runs one side of a paired comparison once and returns the
// seconds it measured.
type arm func() (float64, error)

// timed wraps f as an arm that measures its wall time.
func timed(f func() error) arm {
	return func() (float64, error) {
		t0 := time.Now()
		err := f()
		return time.Since(t0).Seconds(), err
	}
}

// pairing is the outcome of paired.
type pairing struct {
	A, B Spread // seconds per arm
	// Ratio is B/A, taken pair by pair.
	Ratio Spread
}

// paired runs n pairs of the two arms, a first in even pairs and b first
// in odd ones.
func paired(n int, a, b arm) (pairing, error) {
	as, bs, ratios := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		first, second := a, b
		if i%2 == 1 {
			first, second = b, a
		}
		x, err := first()
		if err != nil {
			return pairing{}, err
		}
		y, err := second()
		if err != nil {
			return pairing{}, err
		}
		if i%2 == 1 {
			x, y = y, x
		}
		as[i], bs[i], ratios[i] = x, y, y/x
	}
	return pairing{A: spreadOf(as), B: spreadOf(bs), Ratio: spreadOf(ratios)}, nil
}
