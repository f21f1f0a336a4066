package ft_test

import (
	"fmt"
	"testing"

	"repro/internal/ft"
	"repro/internal/gpu"
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
//     right_update kernel after it, starts.
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
// order, and checks it saw wantCk checkpoint groups.
func checkOrdering(t *testing.T, spans []gpu.Span, wantCk int) {
	t.Helper()
	var maint, writers float64 // latest end of the spans of each class so far
	groups := 0
	var open []gpu.Span // the latest group of checkpoint reads, until the top-row update
	for i, s := range spans {
		switch s.Phase {
		case "detect":
			if s.Start < maint {
				t.Errorf("span %d: detect %s on %s starts at %.9g, before the checksum kernels end at %.9g", i, s.Kind, s.Lane, s.Start, maint)
			}
		case "checkpoint":
			if len(open) == 0 {
				groups++
			}
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
}
