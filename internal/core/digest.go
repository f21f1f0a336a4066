package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strings"

	"repro/internal/ft"
	"repro/internal/hybrid"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// MatrixDigest is the canonical SHA-256 fingerprint of a matrix: the
// IEEE-754 bit patterns of its elements in column-major order, each as 8
// little-endian bytes. Bit patterns (not values) make the digest exact —
// -0.0 and 0.0, or two NaN payloads, hash differently — which is what a
// bit-identical determinism contract needs.
func MatrixDigest(m *matrix.Matrix) string { return digest(m, nil) }

// Digest fingerprints the factorization: MatrixDigest of Packed followed
// by the Tau scalars. This is the digest `fthess -checksum` prints and CI
// compares across the result-invariant options (invariance_test.go).
// It needs a Real-mode result: a CostOnly run's Packed has no values, and
// Digest panics on it.
func (r *Result) Digest() string { return digest(r.Packed, r.Tau) }

// digest hashes m's elements in MatrixDigest's byte order and then tail,
// encoding each column (and tail) into one reused buffer and writing it
// to the hash at once.
func digest(m *matrix.Matrix, tail []float64) string {
	h := sha256.New()
	buf := make([]byte, 0, 8*max(m.Rows, len(tail)))
	put := func(x []float64) {
		buf = buf[:0]
		for _, v := range x {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		h.Write(buf)
	}
	for j := 0; j < m.Cols; j++ {
		put(m.Col(j))
	}
	put(tail)
	return hex.EncodeToString(h.Sum(nil))
}

// plumbing names the Options fields that wire one call into its
// surroundings: cancellation, the fault hook, observability sinks, and the
// device objects to run on (built from Params; an explicit Devices pool
// counts as DeviceCount). They never decide what is computed or modeled,
// so ResultKey leaves them out.
var plumbing = map[string]bool{
	"Ctx": true, "Hook": true, "Obs": true, "Journal": true, "Trace": true,
	"Device": true, "Devices": true,
}

// ResultKey derives the result-cache key of Reduce(a, opt): the input's
// MatrixDigest plus every Options field that is not plumbing, with the
// defaults resolved (NB, Params, Substrate). Equal keys mean equal
// Results, modeled time included, so a cache hit returns exactly what a
// miss would. ok is false for runs with no cacheable outcome: a cost-only
// run holds no numerics, and a Hook may inject faults.
func ResultKey(a *matrix.Matrix, opt Options) (key string, ok bool) {
	if opt.CostOnly || opt.Hook != nil {
		return "", false
	}
	if opt.NB <= 0 {
		opt.NB = hybrid.DefaultNB
	}
	if opt.Params == (sim.Params{}) {
		opt.Params = sim.K40c()
	}
	if opt.Substrate == "" {
		opt.Substrate = ft.SubstrateSwept
	}
	if len(opt.Devices) > 0 {
		opt.DeviceCount = len(opt.Devices)
	}
	var b strings.Builder
	b.WriteString(MatrixDigest(a))
	v := reflect.ValueOf(opt)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; !plumbing[name] {
			fmt.Fprintf(&b, " %s=%v", name, v.Field(i).Interface())
		}
	}
	return b.String(), true
}
