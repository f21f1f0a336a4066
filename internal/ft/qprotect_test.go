package ft

import (
	"errors"
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// qFixture builds a packed host matrix whose sub-subdiagonal region plays
// the role of the Householder storage, absorbed panel by panel.
func qFixture(n, nb, panels int) (*gpu.Device, *matrix.Matrix, *qChecksums) {
	dev := gpu.New(sim.K40c(), gpu.Real)
	host := matrix.Random(n, n, 77)
	q := newQChecksums(gpu.Real, host)
	for p := 0; p < panels*nb; p += nb {
		q.absorbPanel(hybrid.DeviceLane(dev), dev.Params, p, nb)
	}
	return dev, host, q
}

// verifyQ runs the end-of-factorization Q check over columns
// 0..limit-1 (τ = 1e-9) and returns the number of repaired elements.
func verifyQ(dev *gpu.Device, host *matrix.Matrix, q *qChecksums, limit int) (int, error) {
	res := &Result{}
	s := &run{
		recovery: recovery{lane: hybrid.DeviceLane(dev), pp: dev.Params, ledger: ledger{now: dev.Elapsed, t: &res.Tally}, tauDet: 1e-9},
		hostA:    host, qprot: q, res: res,
	}
	err := s.verifyQ(limit)
	return s.res.QCorrections, err
}

func TestQChecksumsCleanVerify(t *testing.T) {
	dev, host, q := qFixture(64, 8, 4)
	fixes, err := verifyQ(dev, host, q, 32)
	if err != nil || fixes != 0 {
		t.Fatalf("clean verify: fixes=%d err=%v", fixes, err)
	}
}

func TestQChecksumsSingleCorrection(t *testing.T) {
	dev, host, q := qFixture(64, 8, 4)
	orig := host.At(40, 10)
	host.Add(40, 10, 2.5) // inside the protected region (row ≥ col+2, col < 32)
	fixes, err := verifyQ(dev, host, q, 32)
	if err != nil {
		t.Fatal(err)
	}
	if fixes != 1 {
		t.Fatalf("fixes = %d", fixes)
	}
	if d := host.At(40, 10) - orig; d > 1e-9 || d < -1e-9 {
		t.Fatalf("element not restored: off by %v", d)
	}
}

func TestQChecksumsMultipleDistinctCorrections(t *testing.T) {
	dev, host, q := qFixture(64, 8, 4)
	host.Add(40, 10, 1.0)
	host.Add(50, 20, 2.0)
	fixes, err := verifyQ(dev, host, q, 32)
	if err != nil {
		t.Fatal(err)
	}
	if fixes != 2 {
		t.Fatalf("fixes = %d", fixes)
	}
}

func TestQChecksumsSharedColumn(t *testing.T) {
	dev, host, q := qFixture(64, 8, 4)
	host.Add(40, 10, 1.0)
	host.Add(50, 10, 2.0) // same column, distinct rows
	fixes, err := verifyQ(dev, host, q, 32)
	if err != nil || fixes != 2 {
		t.Fatalf("fixes=%d err=%v", fixes, err)
	}
}

func TestQChecksumsAmbiguous(t *testing.T) {
	dev, host, q := qFixture(64, 8, 4)
	host.Add(40, 10, 2.0)
	host.Add(50, 20, 2.0) // equal deltas, distinct rows and columns
	_, err := verifyQ(dev, host, q, 32)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("expected ErrUncorrectable, got %v", err)
	}
}

func TestQChecksumsChecksumElementError(t *testing.T) {
	dev, host, q := qFixture(64, 8, 4)
	q.rowChk[40] += 3.0 // corrupt the checksum itself
	fixes, err := verifyQ(dev, host, q, 32)
	if err != nil {
		t.Fatal(err)
	}
	if fixes != 0 {
		t.Fatalf("checksum-only error should refresh, not fix data: %d", fixes)
	}
	// A second verify must now be clean.
	if fixes, err = verifyQ(dev, host, q, 32); err != nil || fixes != 0 {
		t.Fatalf("post-refresh verify: fixes=%d err=%v", fixes, err)
	}
}

func TestQChecksumsReabsorption(t *testing.T) {
	// Re-absorbing the same panel (the recovery re-execution path) must
	// retract the previous contribution, not double it.
	dev, host, q := qFixture(64, 8, 3)
	q.absorbPanel(hybrid.DeviceLane(dev), dev.Params, 16, 8) // re-absorb the most recent panel
	fixes, err := verifyQ(dev, host, q, 24)
	if err != nil || fixes != 0 {
		t.Fatalf("after re-absorption: fixes=%d err=%v", fixes, err)
	}
}

func TestQChecksumsReabsorbChangedPanel(t *testing.T) {
	dev, host, q := qFixture(64, 8, 3)
	// The panel data changed between absorptions (a corrected error).
	host.Add(30, 18, 4.0)
	q.absorbPanel(hybrid.DeviceLane(dev), dev.Params, 16, 8)
	fixes, err := verifyQ(dev, host, q, 24)
	if err != nil || fixes != 0 {
		t.Fatalf("checksums must track the re-absorbed data: fixes=%d err=%v", fixes, err)
	}
}

func TestQChecksumsLimitClamp(t *testing.T) {
	dev, host, q := qFixture(64, 8, 2) // absorbed columns 0..15
	// Verifying "through column 40" must clamp to the absorbed range.
	if _, err := verifyQ(dev, host, q, 40); err != nil {
		t.Fatal(err)
	}
}

// An exponent flip in the host Householder store leaves a delta so large
// that subtracting it cancels the element's true value; the Q check's
// re-check must locate the cancellation and restore the element.
func TestQCheckRechecksExponentFlip(t *testing.T) {
	a := matrix.Random(96, 96, 5)
	for _, pos := range [][2]int{{40, 3}, {90, 10}, {20, 17}} {
		hook := funcHook{before: func(ctx *IterCtx) {
			if ctx.Iter == 3 {
				v := ctx.Host.At(pos[0], pos[1])
				ctx.Host.Set(pos[0], pos[1], math.Float64frombits(math.Float64bits(v)^1<<62))
			}
		}}
		res, err := Reduce(a, Options{NB: 16, Device: newDev(), Hook: hook})
		if err != nil {
			t.Fatalf("%v: %v", pos, err)
		}
		if res.QCorrections == 0 {
			t.Fatalf("%v: the Q check corrected nothing", pos)
		}
		if r := lapack.FactorizationResidual(a, res.Q(), res.H()); r > 1e-12 {
			t.Fatalf("%v: residual %v after %d Q correction(s): silent corruption", pos, r, res.QCorrections)
		}
	}
}
