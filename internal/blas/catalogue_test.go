package blas_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/blas"
)

// TestBenchBlasJSON byte-compares the shape catalogue with the committed
// BENCH_blas.json. Every shape's rounds hold at least two work items, so
// the parallel Dgemm can engage more than one core.
func TestBenchBlasJSON(t *testing.T) {
	s, ok := bench.Lookup("blas")
	if !ok {
		t.Fatal("no blas study")
	}
	art, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range art.(*blas.Catalogue).Shapes {
		if sh.ParallelTasks < 2 {
			t.Errorf("shape %s: %d parallel task(s), want >= 2", sh.Name, sh.ParallelTasks)
		}
	}
	if err := s.Diff("../..", art); err != nil {
		t.Error(err)
	}
}
