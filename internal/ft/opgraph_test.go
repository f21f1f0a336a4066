package ft

import (
	"sort"

	"repro/internal/gpu"
)

// OpGraph is the dependency graph of a traced run's op records, merged
// from every device of the run and sorted by id, which is issue order.
// An op's start is ordered by its Deps (its declared dependencies and
// its issuing host's frontier) and by its lane predecessor; Closure
// follows both transitively. Schedule tests in this package and in
// ft_test assert orderings against it rather than against timing.
type OpGraph struct {
	Spans []gpu.Span
	index map[int]int // span index by id
	prev  []int       // index of the lane predecessor, -1 for none
}

// NewOpGraph merges the traces of a run's devices.
func NewOpGraph(traces ...[]gpu.Span) *OpGraph {
	var spans []gpu.Span
	for _, tr := range traces {
		spans = append(spans, tr...)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	g := &OpGraph{Spans: spans, index: make(map[int]int, len(spans)), prev: make([]int, len(spans))}
	last := map[string]int{}
	for i, s := range spans {
		g.index[s.ID] = i
		g.prev[i] = -1
		if p, ok := last[s.Lane]; ok {
			g.prev[i] = p
		}
		last[s.Lane] = i
	}
	return g
}

// Overlap reports whether regions a and b share an element of one
// allocation.
func Overlap(a, b gpu.Region) bool {
	return a.Alloc != 0 && a.Alloc == b.Alloc &&
		a.Row < b.Row+b.Rows && b.Row < a.Row+a.Rows &&
		a.Col < b.Col+b.Cols && b.Col < a.Col+a.Cols
}

// Closure marks, by span index, every op that orders span i's start.
func (g *OpGraph) Closure(i int) []bool {
	seen := make([]bool, len(g.Spans))
	stack := []int{i}
	push := func(k int) {
		if k >= 0 && !seen[k] {
			seen[k] = true
			stack = append(stack, k)
		}
	}
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		push(g.prev[j])
		for _, id := range g.Spans[j].Deps {
			if k, ok := g.index[id]; ok {
				push(k)
			}
		}
	}
	return seen
}
