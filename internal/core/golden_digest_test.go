package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/matrix"
)

// TestPinnedResultDigests pins the exact bits of seeded Real-mode
// reductions. Every number here is produced by the host BLAS kernels, so a
// kernel change that alters a single rounding anywhere in the reduction or
// in the formation of Q — a reassociated dot product, a fused multiply-add
// — changes a digest and fails this test. The factorization digests were
// recorded with the scalar Level-1/2 loops the vectorised kernels
// replaced; the Q digests with the blocked (Level-3) Dorghr. They are
// amd64 values: on targets such as arm64 the Go compiler fuses x*y+z in
// the portable loops into one FMA, which rounds differently.
//
// The injected rows pin corrected runs of the fused pool: a fault is
// repaired by the exact residual of its row and column checksums, so the
// corrected element's bits depend on the order every halo producer and
// consumer sums in. A faithful correction of the panel flip leaves the
// clean digest.
func TestPinnedResultDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned digests are amd64 values")
	}
	const n, nb, seed = 256, 16, 7
	a := matrix.Random(n, n, seed)
	cases := []struct {
		name    string
		opt     Options
		digest  string // Result.Digest: packed factorization and tau
		qDigest string // MatrixDigest of the explicit Q
	}{
		{"ft-swept-K0", Options{Algorithm: FaultTolerant, NB: nb},
			"047c71fbdc37fa619fe488fb57fb5546d65ce8bcb947ced899b284f6c03d8721",
			"1f04bb45f68169ff4fa5d995a3a1f3d0a8dd9d850d60251145be4eeb021492c8"},
		{"ft-fused-K2", Options{Algorithm: FaultTolerant, NB: nb, DeviceCount: 2, Substrate: "fused"},
			"66e53715d09722cd4bc561784eb8e359b68e49d02aae00cf262d2f8debe14ca3",
			"fbe0f025b7bee8c3a1f0a9bd13be03958e4d311341e2c1ff14e2e3c1132cc954"},
		{"ft-fused-K2-area2-delta", Options{Algorithm: FaultTolerant, NB: nb, DeviceCount: 2, Substrate: "fused",
			Hook: fault.New(fault.Plan{Area: fault.Area2, TargetIter: 5, Seed: 2, Delta: 1.7})},
			"6540633aed180d1f93c0d295b945e94e1e25a02719472007515f84b25d016e9b",
			"78cdee5a9497a62cb2e10193264723929650cff74c8fd22e2182e431950a8efc"},
		{"ft-fused-K2-area1-flip", Options{Algorithm: FaultTolerant, NB: nb, DeviceCount: 2, Substrate: "fused",
			Hook: fault.New(fault.Plan{Area: fault.Area1, TargetIter: 5, Seed: 2, BitFlip: true, Bit: 47})},
			"28ef632b1a3de926b08263b1d7594c21c0ea83b6df5fdba7d5c8edc4b37748ef",
			"fbe0f025b7bee8c3a1f0a9bd13be03958e4d311341e2c1ff14e2e3c1132cc954"},
		{"ft-fused-K2-panel-flip", Options{Algorithm: FaultTolerant, NB: nb, DeviceCount: 2, Substrate: "fused",
			Hook: fault.New(fault.Plan{Area: fault.AreaPanel, TargetIter: 7, Seed: 3, BitFlip: true, Bit: 47})},
			"66e53715d09722cd4bc561784eb8e359b68e49d02aae00cf262d2f8debe14ca3",
			"fbe0f025b7bee8c3a1f0a9bd13be03958e4d311341e2c1ff14e2e3c1132cc954"},
		{"baseline-K0", Options{Algorithm: Baseline, NB: nb},
			"047c71fbdc37fa619fe488fb57fb5546d65ce8bcb947ced899b284f6c03d8721",
			"1f04bb45f68169ff4fa5d995a3a1f3d0a8dd9d850d60251145be4eeb021492c8"},
		{"cpu-only", Options{Algorithm: CPUOnly, NB: nb},
			"f36d96f1726e949ed81c434ac6298da0cacbb09306a086e8d4283c0af6858c81",
			"5f9f85e04ff3284b7132c52747dd6b4b7c824f32505e53a7539cf31ad9b8c7ff"},
	}
	for _, c := range cases {
		res, err := Reduce(a, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := 0
		if c.opt.Hook != nil {
			want = 1
		}
		if res.Recoveries != want {
			t.Errorf("%s: %d recoveries, want %d", c.name, res.Recoveries, want)
		}
		if got := res.Digest(); got != c.digest {
			t.Errorf("%s: result digest %s, pinned %s", c.name, got, c.digest)
		}
		if got := MatrixDigest(res.Q()); got != c.qDigest {
			t.Errorf("%s: Q digest %s, pinned %s", c.name, got, c.qDigest)
		}
	}

	// The pipeline the reduction feeds: Eigenvalues' sorted spectrum, as
	// IEEE-754 bit patterns (Re then Im, little-endian). Pinned before the
	// eigenvalue-only and Schur-vector Francis QR codes were merged.
	eigs, _, err := Eigenvalues(a, Options{Algorithm: FaultTolerant, NB: nb})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	for _, v := range eigs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Re))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Im))
		h.Write(buf[:])
	}
	const eigDigest = "e358e71e9ef3e27ebe7c6158f76fe4b675f97cd7cb53435634211d5a3a0b4251"
	if got := hex.EncodeToString(h.Sum(nil)); got != eigDigest {
		t.Errorf("Eigenvalues digest %s, pinned %s", got, eigDigest)
	}

	// The symmetric path: both algorithms must produce the same bits, the
	// fault-tolerant one only adding checksums beside the data path.
	const symN, symNB = 200, 16
	sa := matrix.RandomSymmetric(symN, seed)
	const symDigestPin = "8c0c4cd0e21dc96b27181b4f2d6edd86f2676ed534e44af92c42d30baf0aa387"
	for _, ftOn := range []bool{false, true} {
		res, err := ReduceSym(sa, SymOptions{NB: symNB, FaultTolerant: ftOn})
		if err != nil {
			t.Fatalf("sym ft=%v: %v", ftOn, err)
		}
		if got := symDigest(res); got != symDigestPin {
			t.Errorf("sym ft=%v: digest %s, pinned %s", ftOn, got, symDigestPin)
		}
	}
}

// symDigest fingerprints a tridiagonalization: D, E and Tau, then the
// packed lower triangle (reflectors and the tridiagonal band) column by
// column, each value as its IEEE-754 bits.
func symDigest(r *SymResult) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, s := range [][]float64{r.D, r.E, r.Tau} {
		for _, v := range s {
			put(v)
		}
	}
	for j := 0; j < r.N; j++ {
		for i := j; i < r.N; i++ {
			put(r.Packed.At(i, j))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
