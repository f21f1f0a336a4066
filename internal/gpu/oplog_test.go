package gpu

import (
	"reflect"
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// TestOpRecords pins the records of a hand-built program across the
// host, copy, compute and lookahead lanes: ids, lanes, deps (declared,
// joined, and the host's frontier with its sync edge), regions (a view
// of a view carries its allocation and origin), exact starts, and the
// flow arrow the Chrome export derives from the sync edge.
func TestOpRecords(t *testing.T) {
	d := New(sim.K40c(), Real)
	d.EnableTrace()
	p := d.Params
	a := d.Alloc(8, 8) // allocation 1
	h := matrix.Random(8, 8, 1)
	up := d.H2DAsync(a, 0, 0, h) // op 2
	d.HostOp(1e-6, nil)          // op 3
	// A view of a view: rows 3..6, columns 5..6 of a.
	v := a.View(2, 2, 6, 6).View(1, 3, 4, 2)
	k := d.Gemm(blas.NoTrans, blas.NoTrans, 4, 2, 2, 1, a, 0, 0, a, 0, 0, 0, v, 0, 0, up) // op 4
	prev := d.SetStream(d.Lookahead)
	x := d.Gemv(blas.NoTrans, 4, 4, 1, a, 0, 0, a, 0, 7, 0, a, 4, 7) // op 5
	d.SetStream(prev)
	out := matrix.New(4, 2)
	e := d.D2HAsync(out, v, 0, 0, d.Join(k, x)) // op 6
	d.Sync(e)
	d.HostOp(2e-6, nil) // op 7

	type rec struct {
		id     int
		lane   string
		kind   string
		deps   []int
		region Region
		cost   float64
	}
	want := []rec{
		{2, "gpu-copy", "h2d", nil, Region{Alloc: 1, Rows: 8, Cols: 8}, p.Transfer(8 * 8 * 8)},
		{3, "host", "host", nil, Region{}, 1e-6},
		{4, "gpu-compute", "gemm", []int{2, 3}, Region{Alloc: 1, Row: 3, Col: 5, Rows: 4, Cols: 2}, p.GemmDevice(4, 2, 2)},
		{5, "gpu-lookahead", "gemv", []int{3}, Region{Alloc: 1, Row: 4, Col: 7, Rows: 4, Cols: 1}, p.GemvDevice(4, 4)},
		{6, "gpu-copy", "d2h", []int{4, 5, 3}, Region{Alloc: 1, Row: 3, Col: 5, Rows: 4, Cols: 2}, p.Transfer(4 * 2 * 8)},
		{7, "host", "host", []int{3, 6}, Region{}, 2e-6},
	}
	spans := d.Trace()
	if len(spans) != len(want) {
		t.Fatalf("%d records, want %d: %+v", len(spans), len(want), spans)
	}
	for i, w := range want {
		s := spans[i]
		got := rec{s.ID, s.Lane, s.Kind, s.Deps, s.Region, w.cost}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("record %d = %+v, want %+v", i, got, w)
		}
		if s.Start+w.cost != s.End {
			t.Errorf("record %d: start %v + cost %v != end %v", s.ID, s.Start, w.cost, s.End)
		}
	}
	// The upload starts when its launch ends; the kernel waits for it.
	if spans[0].Start != p.KernelLaunchSec || spans[2].Start != max(spans[0].End, spans[1].End+p.KernelLaunchSec) {
		t.Errorf("starts %v, %v: want the launch end and the later of the upload and the host op plus a launch", spans[0].Start, spans[2].Start)
	}
	if e.Op != 6 || k.Op != 4 {
		t.Errorf("events carry ops %d and %d, want 6 and 4", e.Op, k.Op)
	}

	var flows [][3]any
	for _, ev := range ChromeEvents(1, "p", spans, d.lanes()) {
		if ev.Ph == "s" || ev.Ph == "f" {
			flows = append(flows, [3]any{ev.Ph, ev.ID, ev.Ts})
		}
	}
	mid := func(s Span) float64 { return (s.Start + s.End) / 2 * 1e6 }
	if wantF := [][3]any{{"s", 6, mid(spans[4])}, {"f", 6, mid(spans[5])}}; !reflect.DeepEqual(flows, wantF) {
		t.Errorf("flow events %v, want %v", flows, wantF)
	}
}

// TestPoolOpLog checks that a pool's members and its main host share one
// op log: ids are unique across them, the main host's ops land in the
// first member's trace, and a member takes the main host's frontier
// when the main host hands it commands.
func TestPoolOpLog(t *testing.T) {
	devs := []*Device{NewIndexed(sim.K40c(), CostOnly, 0), NewIndexed(sim.K40c(), CostOnly, 1)}
	for _, d := range devs {
		d.EnableTrace()
	}
	main := MainHost(devs)
	m := devs[1].Alloc(16, 16)
	k := devs[1].Gemm(blas.NoTrans, blas.NoTrans, 16, 16, 16, 1, m, 0, 0, m, 0, 0, 0, m, 0, 0)
	main.Sync(k)
	main.HostOp(1e-6, nil)
	devs[0].Follow(main)
	devs[0].Add(devs[0].Alloc(1, 1), 0, 0, 1)

	d0, d1 := devs[0].Trace(), devs[1].Trace()
	if len(d0) != 2 || len(d1) != 1 {
		t.Fatalf("traces of %d and %d records, want 2 and 1", len(d0), len(d1))
	}
	host, add := d0[0], d0[1]
	if host.Lane != "main-host" || !reflect.DeepEqual(host.Deps, []int{k.Op}) {
		t.Errorf("main-host record %+v, want lane main-host with the sync edge to %d", host, k.Op)
	}
	if !(d1[0].ID < host.ID && host.ID < add.ID) || !reflect.DeepEqual(add.Deps, []int{host.ID}) {
		t.Errorf("ids %d, %d, %d and deps %v: want increasing ids and the main host's op as the frontier",
			d1[0].ID, host.ID, add.ID, add.Deps)
	}
}
