package ft_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// TestChecksumOrdering checks the cross-stream waits of the
// single-device FT schedule from its op records. Real mode executes
// every op eagerly in issue order, so a dropped dependency moves no
// result bit; it only lets the model start an op early. The test
// therefore asks which ops order each op's start (ft.OpGraph: its deps,
// its host's sync edges and its lane predecessor, transitively), with
// the ops named by their phases:
//
//   - every checksum_maintenance op issued before a detect op orders
//     it: detection reads both checksums;
//   - every op issued before a checkpoint read that writes the panel or
//     its checksum row (the encode, the updates and the checksum
//     kernels) orders it, and the read orders the iteration's top-row
//     update, the first right_update kernel after it;
//   - each iteration makes exactly one checkpoint read, one detection
//     launch and one detection read;
//   - τ's ‖A‖₁ pass on the host lies inside the setup upload;
//   - the final Q verify is issued after the cleanup transfer home, and
//     both order the cleanup DGEHD2.
func TestChecksumOrdering(t *testing.T) {
	for _, noLA := range []bool{false, true} {
		t.Run(fmt.Sprintf("no-lookahead=%v", noLA), func(t *testing.T) {
			dev := gpu.New(sim.K40c(), gpu.Real)
			dev.EnableTrace()
			res, err := ft.Reduce(matrix.Random(256, 256, 7), ft.Options{NB: 16, Device: dev, DisableLookahead: noLA})
			if err != nil {
				t.Fatal(err)
			}
			if res.Detections != 0 {
				t.Fatalf("clean run raised %d detection(s)", res.Detections)
			}
			checkOrdering(t, ft.NewOpGraph(dev.Trace()), res.Checkpoints)
		})
	}
}

// checkOrdering applies TestChecksumOrdering's rules to g's ops in issue
// order, and checks it saw wantCk checkpoint groups.
func checkOrdering(t *testing.T, g *ft.OpGraph, wantCk int) {
	t.Helper()
	spans := g.Spans
	// requireBefore reports every op of ops that does not order span i.
	requireBefore := func(i int, ops []int, what string) {
		t.Helper()
		c := g.Closure(i)
		for _, j := range ops {
			if !c[j] {
				t.Errorf("op %d (%s %s on %s) is not ordered after %s op %d (%s on %s)",
					spans[i].ID, spans[i].Phase, spans[i].Kind, spans[i].Lane, what, spans[j].ID, spans[j].Kind, spans[j].Lane)
			}
		}
	}
	var maint, writers []int // the ops of each class so far
	groups := 0
	var open []int // the latest group of checkpoint reads, until the top-row update
	// Per iteration (a checkpoint group opens one): checkpoint reads,
	// detection launches and detection reads.
	var perIter [][3]int
	upload, home := -1, -1 // the setup upload, the cleanup transfer home
	var verify []int       // the Q verify: q_protect ops issued after home
	for i, s := range spans {
		switch s.Phase {
		case "detect":
			requireBefore(i, maint, "checksum_maintenance")
			if len(perIter) == 0 {
				t.Errorf("op %d: detect %s before the first checkpoint", s.ID, s.Kind)
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
			requireBefore(i, writers, "panel-writing")
			open = append(open, i)
		case "right_update":
			if s.Lane == "gpu-compute" && len(open) > 0 {
				requireBefore(i, open, "checkpoint")
				open = nil
			}
		case "setup":
			switch {
			case s.Kind == "h2d" && upload < 0:
				upload = i
			case s.Kind == "host":
				if upload < 0 || s.Start < spans[upload].Start || spans[upload].End < s.End {
					t.Errorf("op %d: τ's host pass [%.9g, %.9g] is not inside the setup upload (op index %d)", s.ID, s.Start, s.End, upload)
				}
			}
		case "q_protect":
			if home >= 0 {
				verify = append(verify, i)
			}
		case "cleanup":
			switch {
			case s.Kind == "d2h":
				home = i
			case s.Kind == "host":
				if home < 0 || len(verify) == 0 {
					t.Errorf("op %d: DGEHD2 issued before the transfer home (index %d) and the Q verify (%d ops)", s.ID, home, len(verify))
					break
				}
				requireBefore(i, append([]int{home}, verify...), "transfer-home or Q-verify")
			}
		}
		switch s.Phase {
		case "checksum_maintenance":
			maint = append(maint, i)
			writers = append(writers, i)
		case "encode", "left_update", "right_update":
			writers = append(writers, i)
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
	if upload < 0 || home < 0 || len(verify) == 0 {
		t.Errorf("saw setup upload %d, transfer home %d, %d Q-verify ops", upload, home, len(verify))
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

// TestPoolChecksumOrdering checks the pool schedule's waits the same
// way, per device, from the op records of the whole pool. A gather copy
// home reads one slab's data, so the regions those copies read name the
// device's slabs; an op writes a slab when its region overlaps one:
//
//   - every copy home of slab data (the panel offload, the gather) is
//     ordered after every op issued before it that writes a block it
//     reads;
//   - a detection kernel reads every slab of its device, so it is
//     ordered after every slab writer issued before it on the device,
//     and after the encode and maintenance kernels;
//   - an upload into a slab (the V upload into the panel slab) is
//     ordered after every detection and maintenance kernel issued before
//     it on the device: they read the columns it overwrites.
//
// The rules run on the FT reduction and on the pool baseline
// (hybrid.Reduce), at K ∈ {1, 2}, with lookahead on and off.
func TestPoolChecksumOrdering(t *testing.T) {
	for _, alg := range []string{"ft", "baseline"} {
		for _, k := range []int{1, 2} {
			for _, noLA := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/k=%d/no-lookahead=%v", alg, k, noLA), func(t *testing.T) {
					devs := make([]*gpu.Device, k)
					traces := make([][]gpu.Span, k)
					for i := range devs {
						devs[i] = gpu.NewIndexed(sim.K40c(), gpu.Real, i)
						devs[i].EnableTrace()
					}
					a := matrix.Random(256, 256, 7)
					if alg == "baseline" {
						if _, err := hybrid.Reduce(a, hybrid.Options{NB: 16, Devices: devs, DisableLookahead: noLA}); err != nil {
							t.Fatal(err)
						}
					} else {
						res, err := ft.Reduce(a, ft.Options{NB: 16, Devices: devs, DisableLookahead: noLA})
						if err != nil {
							t.Fatal(err)
						}
						if res.Detections != 0 {
							t.Fatalf("clean run raised %d detection(s)", res.Detections)
						}
					}
					for i, dev := range devs {
						traces[i] = dev.Trace()
					}
					g := ft.NewOpGraph(traces...)
					for _, dev := range devs {
						checkPoolOrdering(t, g, dev.Name(), alg == "ft")
					}
				})
			}
		}
	}
}

// checkPoolOrdering applies TestPoolChecksumOrdering's rules to device
// name's ops in g.
func checkPoolOrdering(t *testing.T, g *ft.OpGraph, name string, guarded bool) {
	t.Helper()
	spans := g.Spans
	var ops []int          // the device's stream ops, in issue order
	var slabs []gpu.Region // the blocks the gather copies read
	for i, s := range spans {
		if strings.HasPrefix(s.Lane, name+"-") && s.Lane != name+"-host" {
			ops = append(ops, i)
			if s.Phase == "cleanup" && s.Kind == "d2h" {
				slabs = append(slabs, s.Region)
			}
		}
	}
	inSlab := func(r gpu.Region) bool {
		for _, sl := range slabs {
			if ft.Overlap(r, sl) {
				return true
			}
		}
		return false
	}
	writes := func(s gpu.Span) bool { return s.Kind != "d2h" && inSlab(s.Region) }
	checks := func(s gpu.Span) bool {
		return s.Phase == "encode" || s.Phase == "checksum_maintenance" || s.Phase == "detect" && s.Kind == "custom"
	}
	describe := func(i int) string {
		s := spans[i]
		return fmt.Sprintf("op %d (%s %s on %s, region %+v)", s.ID, s.Phase, s.Kind, s.Lane, s.Region)
	}
	var copies, detects, uploads int
	for n, i := range ops {
		s := spans[i]
		var must func(gpu.Span) bool
		switch {
		case s.Kind == "d2h" && inSlab(s.Region):
			copies++
			must = func(w gpu.Span) bool { return w.Kind != "d2h" && ft.Overlap(w.Region, s.Region) }
		case s.Phase == "detect" && s.Kind == "custom":
			detects++
			must = func(w gpu.Span) bool { return writes(w) || w.Phase == "encode" || w.Phase == "checksum_maintenance" }
		case s.Kind == "h2d" && writes(s) && s.Phase != "setup":
			uploads++
			must = checks
		default:
			continue
		}
		c := g.Closure(i)
		for _, j := range ops[:n] {
			if must(spans[j]) && !c[j] {
				t.Errorf("%s: %s is not ordered after %s", name, describe(i), describe(j))
			}
		}
	}
	if len(slabs) == 0 || copies == 0 || uploads == 0 || guarded && detects == 0 {
		t.Errorf("%s: saw %d slab(s), %d slab copies home, %d detection kernels, %d slab uploads", name, len(slabs), copies, detects, uploads)
	}
}
