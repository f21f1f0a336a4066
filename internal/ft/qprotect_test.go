package ft

import (
	"errors"
	"testing"

	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// qFixture builds a packed host matrix whose sub-subdiagonal region plays
// the role of the Householder storage, absorbed panel by panel.
func qFixture(n, nb, panels int) (*gpu.Device, *matrix.Matrix, *qChecksums) {
	dev := gpu.New(sim.K40c(), gpu.Real)
	host := matrix.Random(n, n, 77)
	q := newQChecksums(gpu.Real, n)
	for p := 0; p < panels*nb; p += nb {
		q.absorbPanel(hybrid.DeviceLane(dev), dev.Params, host, p, nb)
	}
	return dev, host, q
}

func TestQChecksumsCleanVerify(t *testing.T) {
	dev, host, q := qFixture(64, 8, 4)
	fixes, err := q.verifyAndCorrect(hybrid.DeviceLane(dev), dev.Params, host, 32, 1e-9, nil, 0)
	if err != nil || fixes != 0 {
		t.Fatalf("clean verify: fixes=%d err=%v", fixes, err)
	}
}

func TestQChecksumsSingleCorrection(t *testing.T) {
	dev, host, q := qFixture(64, 8, 4)
	orig := host.At(40, 10)
	host.Add(40, 10, 2.5) // inside the protected region (row ≥ col+2, col < 32)
	fixes, err := q.verifyAndCorrect(hybrid.DeviceLane(dev), dev.Params, host, 32, 1e-9, nil, 0)
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
	fixes, err := q.verifyAndCorrect(hybrid.DeviceLane(dev), dev.Params, host, 32, 1e-9, nil, 0)
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
	fixes, err := q.verifyAndCorrect(hybrid.DeviceLane(dev), dev.Params, host, 32, 1e-9, nil, 0)
	if err != nil || fixes != 2 {
		t.Fatalf("fixes=%d err=%v", fixes, err)
	}
}

func TestQChecksumsAmbiguous(t *testing.T) {
	dev, host, q := qFixture(64, 8, 4)
	host.Add(40, 10, 2.0)
	host.Add(50, 20, 2.0) // equal deltas, distinct rows and columns
	_, err := q.verifyAndCorrect(hybrid.DeviceLane(dev), dev.Params, host, 32, 1e-9, nil, 0)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("expected ErrUncorrectable, got %v", err)
	}
}

func TestQChecksumsChecksumElementError(t *testing.T) {
	dev, host, q := qFixture(64, 8, 4)
	q.rowChk[40] += 3.0 // corrupt the checksum itself
	fixes, err := q.verifyAndCorrect(hybrid.DeviceLane(dev), dev.Params, host, 32, 1e-9, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fixes != 0 {
		t.Fatalf("checksum-only error should refresh, not fix data: %d", fixes)
	}
	// A second verify must now be clean.
	if fixes, err = q.verifyAndCorrect(hybrid.DeviceLane(dev), dev.Params, host, 32, 1e-9, nil, 0); err != nil || fixes != 0 {
		t.Fatalf("post-refresh verify: fixes=%d err=%v", fixes, err)
	}
}

func TestQChecksumsReabsorption(t *testing.T) {
	// Re-absorbing the same panel (the recovery re-execution path) must
	// retract the previous contribution, not double it.
	dev, host, q := qFixture(64, 8, 3)
	q.absorbPanel(hybrid.DeviceLane(dev), dev.Params, host, 16, 8) // re-absorb the most recent panel
	fixes, err := q.verifyAndCorrect(hybrid.DeviceLane(dev), dev.Params, host, 24, 1e-9, nil, 0)
	if err != nil || fixes != 0 {
		t.Fatalf("after re-absorption: fixes=%d err=%v", fixes, err)
	}
}

func TestQChecksumsReabsorbChangedPanel(t *testing.T) {
	dev, host, q := qFixture(64, 8, 3)
	// The panel data changed between absorptions (a corrected error).
	host.Add(30, 18, 4.0)
	q.absorbPanel(hybrid.DeviceLane(dev), dev.Params, host, 16, 8)
	fixes, err := q.verifyAndCorrect(hybrid.DeviceLane(dev), dev.Params, host, 24, 1e-9, nil, 0)
	if err != nil || fixes != 0 {
		t.Fatalf("checksums must track the re-absorbed data: fixes=%d err=%v", fixes, err)
	}
}

func TestQChecksumsLimitClamp(t *testing.T) {
	dev, host, q := qFixture(64, 8, 2) // absorbed columns 0..15
	// Verifying "through column 40" must clamp to the absorbed range.
	if _, err := q.verifyAndCorrect(hybrid.DeviceLane(dev), dev.Params, host, 40, 1e-9, nil, 0); err != nil {
		t.Fatal(err)
	}
}
