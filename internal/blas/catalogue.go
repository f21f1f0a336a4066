package blas

import (
	"fmt"
	"io"
)

// GemmShape is one Dgemm problem shape of the catalogue.
type GemmShape struct {
	Name string `json:"shape"`
	M    int    `json:"m"`
	N    int    `json:"n"`
	K    int    `json:"k"`
	// ParallelTasks is how many work items a round of the Dgemm loop
	// nest runs on the worker pool: the first column block's items, cut
	// for the catalogue's reference worker count.
	ParallelTasks int `json:"parallel_tasks"`
}

// GemmShapes are the shape classes the Hessenberg reduction produces
// (DESIGN.md §7):
//
//   - square: the worst-case dense product, pure throughput;
//   - tall-skinny: the per-panel update op(A)·V with m >> n (the shape
//     the pre-blocking Dgemm could barely parallelize);
//   - rank-nb: the trailing-matrix update C -= Y·Wᵀ with k = nb;
//   - left update: W = Vᵀ·C with m = nb, one MC row block, so its work
//     items are ranges of strips.
var GemmShapes = []GemmShape{
	{Name: "square_512", M: 512, N: 512, K: 512},
	{Name: "tall_skinny_panel_4096x8x128", M: 4096, N: 8, K: 128},
	{Name: "rank_nb_trailing_1024x1024x32", M: 1024, N: 1024, K: 32},
	{Name: "left_update_32x1024x1024", M: 32, N: 1024, K: 1024},
}

// Catalogue is the committed BENCH_blas.json: the blocking geometry, the
// reference worker count the work-item grid is cut for, and the parallel
// task count of every catalogued shape. It depends only on the kernel's
// blocking, never on the machine, so it changes only when the blocking
// does.
type Catalogue struct {
	BlockMC    int         `json:"block_mc"`
	BlockNC    int         `json:"block_nc"`
	BlockKC    int         `json:"block_kc"`
	RefWorkers int         `json:"ref_workers"`
	Shapes     []GemmShape `json:"shapes"`
}

// ShapeCatalogue returns the catalogue for the compiled-in blocking.
func ShapeCatalogue() *Catalogue {
	c := &Catalogue{BlockMC: gemmMC, BlockNC: gemmNC, BlockKC: gemmKC, RefWorkers: gemmRefWorkers}
	for _, s := range GemmShapes {
		g := newGemmGrid(s.M, s.N, s.K)
		s.ParallelTasks = g.mBlocks * g.ranges(min(g.width, s.N))
		c.Shapes = append(c.Shapes, s)
	}
	return c
}

// Report prints the catalogue as a table.
func (c *Catalogue) Report(w io.Writer) {
	fmt.Fprintf(w, "Host Dgemm shape catalogue (MC=%d, NC=%d, KC=%d; work items per round cut for %d workers)\n",
		c.BlockMC, c.BlockNC, c.BlockKC, c.RefWorkers)
	for _, s := range c.Shapes {
		fmt.Fprintf(w, "%-32s %5d×%-5d×%-5d %4d parallel tasks\n", s.Name, s.M, s.N, s.K, s.ParallelTasks)
	}
}

// AVX2FMA reports whether Dgemm dispatches to the AVX2+FMA micro-kernel
// on this CPU.
func AVX2FMA() bool { return useAVXKernel }
