package fault

import (
	"strings"
	"testing"
	"time"
)

// TestPlanCheckRefuses names each plan that cannot strike as stated. The
// first would spin forever drawing its positions; the others would end
// clean without injecting anything.
func TestPlanCheckRefuses(t *testing.T) {
	const n, nb = 128, 32
	iters := BlockedIterations(n, nb)
	for _, tc := range []struct {
		name string
		plan Plan
		want string
	}{
		{"area1 count above the one row at iteration 0", Plan{Area: Area1, TargetIter: 0, Count: 2}, "capacity of Area1 at iteration 0: 1 position"},
		{"area3 count above the finished columns", Plan{Area: Area3, TargetIter: 1, Count: 33}, "capacity of Area3 at iteration 1: 32 position"},
		{"panel count above the panel width", Plan{Area: AreaPanel, TargetIter: 1, Count: nb + 1}, "capacity of Panel at iteration 1: 32 position"},
		{"area3 at iteration 0", Plan{Area: Area3, TargetIter: 0}, "Area3 holds no position at iteration 0"},
		{"area2 past the last iteration", Plan{Area: Area2, TargetIter: 99}, "iteration 99 never runs"},
		{"negative iteration", Plan{Area: Area2, TargetIter: -1}, "iteration -1 never runs"},
		{"kill past the last iteration", Plan{TargetIter: iters, KillPoint: KillUpdate}, "never runs"},
		{"position outside the matrix", Plan{TargetIter: 0, Positions: []Pos{{Row: n, Col: 0}}}, "outside the 128×128 matrix"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Check(n, nb, iters)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Check = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestPlanCheckAccepts keeps the plans the campaign and the studies build
// (one position, Area 3 off iteration 0) and full-capacity draws.
func TestPlanCheckAccepts(t *testing.T) {
	const n, nb = 128, 32
	iters := BlockedIterations(n, nb)
	for _, plan := range []Plan{
		{Area: Area1, TargetIter: 0},
		{Area: Area2, TargetIter: iters - 1, Count: 16},
		{Area: Area3, TargetIter: 1, Count: 32},
		{Area: AreaPanel, TargetIter: 2, Count: nb},
		{TargetIter: 1, KillPoint: KillBoundary},
		{TargetIter: 0, Positions: []Pos{{Row: 5, Col: 3}}},
	} {
		if err := plan.Check(n, nb, iters); err != nil {
			t.Errorf("%+v: %v", plan, err)
		}
	}
}

// FuzzPlanPositions: any plan is either refused by Check, or its draw
// ends with Count distinct-row, distinct-column, off-diagonal positions
// inside its area.
func FuzzPlanPositions(f *testing.F) {
	f.Add(128, 32, 0, 1, 2, uint64(1))
	f.Add(9, 2, 2, 1, 5, uint64(3))
	f.Add(10, 1, 7, 3, 4, uint64(7))
	f.Add(256, 16, 3, 4, 16, uint64(11))
	f.Fuzz(func(t *testing.T, n, nb, iter, area, count int, seed uint64) {
		n = 2 + int(uint(n)%300)
		nb = 1 + int(uint(nb)%48)
		iters := BlockedIterations(n, nb)
		plan := New(Plan{Area: Area(uint(area) % 6), TargetIter: iter % (iters + 3), Count: int(uint(count) % 24), Seed: seed}).plans[0]
		if plan.Check(n, nb, iters) != nil {
			return
		}
		p := plan.TargetIter * nb
		k, ib := p+1, min(nb, n-1-p)
		done := make(chan []Pos, 1)
		go func() { done <- positions(plan, n, p, ib) }()
		var got []Pos
		select {
		case got = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("n=%d nb=%d %+v: the draw did not end", n, nb, plan)
		}
		if len(got) != plan.Count {
			t.Fatalf("drew %d positions, want %d", len(got), plan.Count)
		}
		rows, cols := map[int]bool{}, map[int]bool{}
		for _, pos := range got {
			var in bool
			switch plan.Area {
			case Area1:
				in = pos.Row < k && pos.Col >= p
			case Area2:
				in = pos.Row >= k && pos.Col >= p
			case AreaPanel:
				in = pos.Row >= k && pos.Col >= p && pos.Col < p+ib
			default:
				in = pos.Col < p && pos.Row >= pos.Col+2
			}
			if !in || pos.Row >= n || pos.Col >= n || pos.Row == pos.Col || rows[pos.Row] || cols[pos.Col] {
				t.Fatalf("n=%d nb=%d %+v: position %+v of %v", n, nb, plan, pos, got)
			}
			rows[pos.Row], cols[pos.Col] = true, true
		}
	})
}
