package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"repro/internal/matrix"
)

// MatrixDigest is the canonical SHA-256 fingerprint of a matrix: the
// IEEE-754 bit patterns of its elements in column-major order, each as 8
// little-endian bytes. Bit patterns (not values) make the digest exact —
// -0.0 and 0.0, or two NaN payloads, hash differently — which is what a
// bit-identical determinism contract needs.
func MatrixDigest(m *matrix.Matrix) string {
	h := sha256.New()
	var buf [8]byte
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(m.At(i, j)))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Digest fingerprints the factorization: MatrixDigest of Packed followed
// by the Tau scalars. This is the digest `fthess -checksum` prints and CI
// compares across device counts, schedules, and substrates — the PR 5/7/9
// guarantees make it invariant to all three, so it keys the result cache.
// It needs a Real-mode result: a CostOnly run's Packed has no values, and
// Digest panics on it.
func (r *Result) Digest() string {
	h := sha256.New()
	var buf [8]byte
	for j := 0; j < r.Packed.Cols; j++ {
		for i := 0; i < r.Packed.Rows; i++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Packed.At(i, j)))
			h.Write(buf[:])
		}
	}
	for _, tv := range r.Tau {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(tv))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
