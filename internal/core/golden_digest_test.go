package core

import (
	"runtime"
	"testing"

	"repro/internal/matrix"
)

// TestPinnedResultDigests pins the exact bits of seeded Real-mode
// reductions. Every number here is produced by the host BLAS kernels, so a
// kernel change that alters a single rounding anywhere in the reduction or
// in the formation of Q — a reassociated dot product, a fused multiply-add
// — changes a digest and fails this test. The values were recorded with
// the scalar Level-1/2 loops the vectorised kernels replaced. They are
// amd64 values: on targets such as arm64 the Go compiler fuses x*y+z in
// the portable loops into one FMA, which rounds differently.
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
			"285f3a20a357eca5f2b55d6860f449ee4d8ec849ca7dac33ac0e61e8ef05a86b"},
		{"ft-fused-K2", Options{Algorithm: FaultTolerant, NB: nb, DeviceCount: 2, Substrate: "fused"},
			"66e53715d09722cd4bc561784eb8e359b68e49d02aae00cf262d2f8debe14ca3",
			"dc753a8c1f15593adfdc12715aecae8f4c425dbcd1b337baaa4b9956d6c996b0"},
		{"baseline-K0", Options{Algorithm: Baseline, NB: nb},
			"047c71fbdc37fa619fe488fb57fb5546d65ce8bcb947ced899b284f6c03d8721",
			"285f3a20a357eca5f2b55d6860f449ee4d8ec849ca7dac33ac0e61e8ef05a86b"},
		{"cpu-only", Options{Algorithm: CPUOnly, NB: nb},
			"f36d96f1726e949ed81c434ac6298da0cacbb09306a086e8d4283c0af6858c81",
			"cf036ceab4db9d2ea27c052ee699c781a017011c3e1f59dd5ed7959af9c6ffb0"},
	}
	for _, c := range cases {
		res, err := Reduce(a, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := res.Digest(); got != c.digest {
			t.Errorf("%s: result digest %s, pinned %s", c.name, got, c.digest)
		}
		if got := MatrixDigest(res.Q()); got != c.qDigest {
			t.Errorf("%s: Q digest %s, pinned %s", c.name, got, c.qDigest)
		}
	}
}
