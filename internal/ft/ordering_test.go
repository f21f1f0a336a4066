package ft_test

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// TestChecksumOrdering checks the cross-stream waits of the
// single-device FT schedule from its trace. Real mode executes every op
// eagerly in issue order, so a dropped dependency moves no result bit;
// it only lets the model start an op early. The test therefore reads the
// modeled spans, each tagged with its phase:
//
//   - no detect span starts before every checksum_maintenance span
//     issued before it has ended: detection reads both checksums;
//   - each checkpoint read starts after every span issued before it that
//     writes the panel or its checksum row (the encode, the updates and
//     the checksum kernels: ready and the side stream's kernels) has
//     ended, and ends before the iteration's top-row update, the first
//     right_update kernel after it, starts;
//   - each iteration makes exactly one checkpoint read, one detection
//     launch and one detection read;
//   - τ's ‖A‖₁ pass on the host lies inside the setup upload;
//   - the final Q verify is issued after the cleanup transfer home, and
//     the cleanup DGEHD2 starts once both have ended.
//
// The side stream's operations are short and usually finish early
// anyway, so the run is repeated with that stream stretched: then a
// reader that does not wait for its checksum kernels starts before they
// end, and an upload that does not wait for the checkpoint reads riding
// it (iteration 0, or no lookahead) lets the top-row update start first.
func TestChecksumOrdering(t *testing.T) {
	for _, noLA := range []bool{false, true} {
		for _, stretch := range []float64{1, 50} {
			t.Run(fmt.Sprintf("no-lookahead=%v/stretch=%v", noLA, stretch), func(t *testing.T) {
				dev := gpu.New(sim.K40c(), gpu.Real)
				dev.EnableTrace()
				dev.Stretch(dev.Lookahead, stretch)
				res, err := ft.Reduce(matrix.Random(256, 256, 7), ft.Options{NB: 16, Device: dev, DisableLookahead: noLA})
				if err != nil {
					t.Fatal(err)
				}
				if res.Detections != 0 {
					t.Fatalf("clean run raised %d detection(s)", res.Detections)
				}
				checkOrdering(t, dev.Trace(), res.Checkpoints)
			})
		}
	}
}

// checkOrdering applies TestChecksumOrdering's rules to spans in issue
// order, and checks it saw wantCk checkpoint groups. A span's start is
// recorded as its end less its cost, so it may sit an ulp before the
// end of the span it waited on.
func checkOrdering(t *testing.T, spans []gpu.Span, wantCk int) {
	t.Helper()
	before := func(start, end float64) bool { return start < end-1e-15 }
	var maint, writers float64 // latest end of the spans of each class so far
	groups := 0
	var open []gpu.Span // the latest group of checkpoint reads, until the top-row update
	// Per iteration (a checkpoint group opens one): checkpoint reads,
	// detection launches and detection reads.
	var perIter [][3]int
	var upload, home *gpu.Span // the setup upload, the cleanup transfer home
	var verify []gpu.Span      // the Q verify: q_protect spans issued after home
	for i, s := range spans {
		switch s.Phase {
		case "detect":
			if s.Start < maint {
				t.Errorf("span %d: detect %s on %s starts at %.9g, before the checksum kernels end at %.9g", i, s.Kind, s.Lane, s.Start, maint)
			}
			if len(perIter) == 0 {
				t.Errorf("span %d: detect %s before the first checkpoint", i, s.Kind)
			} else if s.Kind == "d2h" {
				perIter[len(perIter)-1][2]++
			} else {
				perIter[len(perIter)-1][1]++
			}
		case "checkpoint":
			if len(open) == 0 {
				groups++
				perIter = append(perIter, [3]int{})
			}
			perIter[len(perIter)-1][0]++
			if s.Start < writers {
				t.Errorf("span %d: checkpoint read on %s starts at %.9g, before the panel's writers end at %.9g", i, s.Lane, s.Start, writers)
			}
			open = append(open, s)
		case "right_update":
			if s.Lane == "gpu-compute" && len(open) > 0 {
				for _, ck := range open {
					if ck.End > s.Start {
						t.Errorf("span %d: top-row update starts at %.9g, before a checkpoint read ends at %.9g", i, s.Start, ck.End)
					}
				}
				open = nil
			}
		case "setup":
			switch {
			case s.Kind == "h2d" && upload == nil:
				upload = &spans[i]
			case s.Kind == "host":
				if upload == nil || before(s.Start, upload.Start) || before(upload.End, s.End) {
					t.Errorf("span %d: τ's host pass [%.9g, %.9g] is not inside the setup upload %v", i, s.Start, s.End, upload)
				}
			}
		case "q_protect":
			if home != nil {
				verify = append(verify, s)
			}
		case "cleanup":
			switch {
			case s.Kind == "d2h":
				home = &spans[i]
			case s.Kind == "host":
				if home == nil || len(verify) == 0 {
					t.Errorf("span %d: DGEHD2 issued before the transfer home (%v) and the Q verify (%d spans)", i, home, len(verify))
					break
				}
				if before(s.Start, home.End) {
					t.Errorf("span %d: DGEHD2 starts at %.9g, before the transfer home ends at %.9g", i, s.Start, home.End)
				}
				for _, v := range verify {
					if before(s.Start, v.End) {
						t.Errorf("span %d: DGEHD2 starts at %.9g, before the Q verify ends at %.9g", i, s.Start, v.End)
					}
				}
			}
		}
		switch s.Phase {
		case "checksum_maintenance":
			maint = max(maint, s.End)
			writers = max(writers, s.End)
		case "encode", "left_update", "right_update":
			writers = max(writers, s.End)
		}
	}
	if groups != wantCk || wantCk == 0 {
		t.Errorf("saw %d checkpoint groups, the run took %d checkpoints", groups, wantCk)
	}
	for it, c := range perIter {
		if c != [3]int{1, 1, 1} {
			t.Errorf("iteration %d: %d checkpoint read(s), %d detection launch(es), %d detection read(s); want one each", it, c[0], c[1], c[2])
		}
	}
	if upload == nil || home == nil || len(verify) == 0 {
		t.Errorf("saw setup upload %v, transfer home %v, %d Q-verify spans", upload, home, len(verify))
	}
}

// TestQVerifyCatchesLastBoundaryHit strikes the host's Householder
// storage (Area 3) at the last blocked iteration's boundary, the latest
// injection point: the Q verify, which runs while the trailing columns
// travel home, must still find and correct it, with lookahead on and
// off.
func TestQVerifyCatchesLastBoundaryHit(t *testing.T) {
	const n, nb = 256, 16
	a := matrix.Random(n, n, 7)
	for _, noLA := range []bool{false, true} {
		t.Run(fmt.Sprintf("no-lookahead=%v", noLA), func(t *testing.T) {
			opt := ft.Options{NB: nb, DisableLookahead: noLA}
			opt.Device = gpu.New(sim.K40c(), gpu.Real)
			clean, err := ft.Reduce(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			last := clean.BlockedIters - 1
			opt.Device = gpu.New(sim.K40c(), gpu.Real)
			opt.Hook = fault.New(fault.Plan{Area: fault.Area3, TargetIter: last, Seed: 3})
			res, err := ft.Reduce(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.QCorrections != 1 || res.Detections != 0 {
				t.Fatalf("Area 3 hit at iteration %d: %d Q correction(s), %d H detection(s); want 1 and 0", last, res.QCorrections, res.Detections)
			}
			if d := res.Packed.Sub(clean.Packed).MaxAbs(); d > 1e-12 {
				t.Fatalf("corrected result differs from the clean one by %.3g", d)
			}
			if r := lapack.FactorizationResidual(a, res.Q(), res.H()); r > 1e-13 {
				t.Fatalf("residual after the Q repair %v", r)
			}
		})
	}
}

// TestPoolChecksumOrdering checks the pool guard's waits the same way,
// per device, from the spans the device pool tags with the slabs they
// touch (gpu.Span.Slabs):
//
//   - a detection kernel reads every slab of its device, so it starts
//     after every slab writer issued before it on the device has ended:
//     the tagged data writers and the encode and maintenance kernels;
//   - each gather copy starts after every data writer of its slab has
//     ended;
//   - the V upload into the panel slab starts after every detection and
//     maintenance kernel issued before it on the device has ended: they
//     read the columns it overwrites.
//
// The runs are repeated with every device's compute stream stretched,
// so a copy that does not wait for a kernel it must follow starts
// before that kernel ends.
func TestPoolChecksumOrdering(t *testing.T) {
	for _, k := range []int{1, 2} {
		for _, noLA := range []bool{false, true} {
			for _, stretch := range []float64{1, 50} {
				t.Run(fmt.Sprintf("k=%d/no-lookahead=%v/stretch=%v", k, noLA, stretch), func(t *testing.T) {
					devs := make([]*gpu.Device, k)
					for i := range devs {
						devs[i] = gpu.NewIndexed(sim.K40c(), gpu.Real, i)
						devs[i].EnableTrace()
						devs[i].Stretch(devs[i].Compute, stretch)
					}
					res, err := ft.Reduce(matrix.Random(256, 256, 7), ft.Options{NB: 16, Devices: devs, DisableLookahead: noLA})
					if err != nil {
						t.Fatal(err)
					}
					if res.Detections != 0 {
						t.Fatalf("clean run raised %d detection(s)", res.Detections)
					}
					for _, dev := range devs {
						checkPoolOrdering(t, dev.Name(), dev.Trace())
					}
				})
			}
		}
	}
}

// checkPoolOrdering applies TestPoolChecksumOrdering's rules to one
// device's spans in issue order. A span's start is recorded as its end
// less its cost, so it may sit an ulp before the end of the span it
// waited on.
func checkPoolOrdering(t *testing.T, name string, spans []gpu.Span) {
	t.Helper()
	before := func(start, end float64) bool { return start < end-1e-15 }
	var writers, checks float64 // latest end of any slab writer / of the checksum kernels so far
	data := map[int]float64{}   // latest end of each slab's data writers so far
	var detects, gathers, uploads int
	for i, s := range spans {
		if s.Lane == "main-host" || s.Lane == name+"-host" {
			continue
		}
		tagged := s.Slabs[1] > 0
		switch {
		case s.Phase == "detect" && s.Kind == "custom":
			detects++
			if before(s.Start, writers) {
				t.Errorf("%s span %d: detection kernel starts at %.9g, before a slab writer ends at %.9g", name, i, s.Start, writers)
			}
		case s.Phase == "cleanup" && s.Kind == "d2h" && tagged:
			gathers++
			if end := data[s.Slabs[0]]; before(s.Start, end) {
				t.Errorf("%s span %d: gather of slab %d starts at %.9g, before its data writer ends at %.9g", name, i, s.Slabs[0], s.Start, end)
			}
		case s.Phase == "right_update" && s.Kind == "h2d" && tagged:
			uploads++
			if before(s.Start, checks) {
				t.Errorf("%s span %d: V upload into slab %d starts at %.9g, before a checksum kernel ends at %.9g", name, i, s.Slabs[0], s.Start, checks)
			}
		}
		switch {
		case tagged && s.Kind != "d2h":
			writers = max(writers, s.End)
			for sl := s.Slabs[0]; sl < s.Slabs[1]; sl++ {
				data[sl] = max(data[sl], s.End)
			}
		case s.Phase == "encode" || s.Phase == "checksum_maintenance":
			writers = max(writers, s.End)
			checks = max(checks, s.End)
		case s.Phase == "detect" && s.Kind == "custom":
			checks = max(checks, s.End)
		}
	}
	if detects == 0 || gathers == 0 || uploads == 0 {
		t.Errorf("%s: saw %d detection kernels, %d gather copies, %d V uploads", name, detects, gathers, uploads)
	}
}
