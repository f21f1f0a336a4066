package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/matrix"
)

// knob is one row of the invariance table: an option setting that may
// change modeled time and the FT counters but never the factorization.
type knob struct {
	name  string
	field string // the Options field the row sets
	// ftOnly rows are read by the fault-tolerant algorithm alone; poolOnly
	// rows need the multi-device family; kill rows lose one device, must
	// restart exactly once, and set only the Hook, so they are not knobs.
	ftOnly, poolOnly, kill bool
	set                    func(o *Options)
}

func killAt(point fault.KillPoint) func(*Options) {
	return func(o *Options) {
		o.Hook = fault.NewSchedule(fault.Plan{TargetIter: 2, KillPoint: point, KillDevice: o.DeviceCount - 1})
	}
}

// invariants is the table of result-invariant knobs.
var invariants = []knob{
	{name: "K=2", field: "DeviceCount", poolOnly: true, set: func(o *Options) { o.DeviceCount = 2 }},
	{name: "K=3", field: "DeviceCount", poolOnly: true, set: func(o *Options) { o.DeviceCount = 3 }},
	{name: "K=4", field: "DeviceCount", poolOnly: true, set: func(o *Options) { o.DeviceCount = 4 }},
	{name: "no lookahead", field: "DisableLookahead", set: func(o *Options) { o.DisableLookahead = true }},
	{name: "no overlap", field: "DisableOverlap", set: func(o *Options) { o.DisableOverlap = true }},
	{name: "fused", field: "Substrate", ftOnly: true, set: func(o *Options) { o.Substrate = "fused" }},
	{name: "no Q protection", field: "DisableQProtection", ftOnly: true, set: func(o *Options) { o.DisableQProtection = true }},
	{name: "final H check", field: "FinalHCheck", ftOnly: true, set: func(o *Options) { o.FinalHCheck = true }},
	{name: "kill at boundary", field: "Hook", ftOnly: true, poolOnly: true, kill: true, set: killAt(fault.KillBoundary)},
	{name: "kill at panel", field: "Hook", ftOnly: true, poolOnly: true, kill: true, set: killAt(fault.KillPanel)},
	{name: "kill at update", field: "Hook", ftOnly: true, poolOnly: true, kill: true, set: killAt(fault.KillUpdate)},
	{name: "baseline", field: "Algorithm", set: func(o *Options) { o.Algorithm = Baseline }},
}

// keyFields may change the factorization itself; only the result-cache
// key covers them.
var keyFields = []string{"NB", "Params", "CostOnly", "ThresholdFactor"}

// TestOptionsClassified makes every Options field exactly one of a table
// knob, a key field, or per-call plumbing (digest.go), so a new field
// fails here until it is classified.
func TestOptionsClassified(t *testing.T) {
	class := map[string]int{}
	for _, k := range invariants {
		if !k.kill {
			class[k.field] |= 1
		}
	}
	for _, f := range keyFields {
		class[f] |= 2
	}
	for f := range plumbing {
		class[f] |= 4
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; class[name] != 1 && class[name] != 2 && class[name] != 4 {
			t.Errorf("Options.%s must be exactly one of a table knob, a key field or plumbing", name)
		}
		delete(class, typ.Field(i).Name)
	}
	for name := range class {
		t.Errorf("classified field %s is not in Options", name)
	}
}

// TestInvarianceMatrix checks the result-invariance contract. For each
// schedule family (K=0 legacy, K≥1 pool, default K=1) and panel width it
// runs the FT default as the reference, then every applicable row, every
// pair of rows on different fields (so each knob also runs under
// Baseline and at every K), and a seeded sample of deeper combinations.
// Every run must reproduce the reference's packed and tau byte for byte
// in as many blocked iterations, with no detection, recovery or Q
// correction — a drifted checksum update would fire a phantom mismatch.
// Fused runs must check and never detect, swept runs touch neither
// substrate counter, and killed runs report exactly one loss and one
// restart and keep the residual bound.
func TestInvarianceMatrix(t *testing.T) {
	const n, samples = 128, 8
	a := matrix.Random(n, n, 41)
	rng := matrix.NewRNG(18)
	// compatible reports whether a set of rows is one run: at most one
	// row per field, and no FT-only row under Baseline.
	compatible := func(set []knob) bool {
		fields, ft, baseline := map[string]bool{}, false, false
		for _, k := range set {
			if fields[k.field] {
				return false
			}
			fields[k.field], ft, baseline = true, ft || k.ftOnly, baseline || k.field == "Algorithm"
		}
		return !(ft && baseline)
	}
	for _, family := range []int{0, 1} {
		for _, nb := range []int{8, 16} {
			base := Options{NB: nb, DeviceCount: family}
			ref, err := Reduce(a, base)
			if err != nil {
				t.Fatal(err)
			}
			check := func(set []knob) {
				t.Helper()
				opt, names, losses := base, []string{fmt.Sprintf("K=%d nb=%d", family, nb)}, 0
				for _, k := range set {
					k.set(&opt)
					names = append(names, k.name)
					if k.kill {
						losses = 1
					}
				}
				label := strings.Join(names, ", ")
				res, err := Reduce(a, opt)
				switch {
				case err != nil:
					t.Fatalf("%s: %v", label, err)
				case !res.Packed.Equal(ref.Packed) || !reflect.DeepEqual(res.Tau, ref.Tau):
					t.Fatalf("%s: packed/tau differ from the family reference (max |Δ| = %g)",
						label, res.Packed.Sub(ref.Packed).MaxAbs())
				case res.BlockedIters != ref.BlockedIters:
					t.Fatalf("%s: %d blocked iterations, the reference ran %d", label, res.BlockedIters, ref.BlockedIters)
				case res.Detections != 0 || res.Recoveries != 0 || len(res.CorrectedH) != 0 || res.QCorrections != 0:
					t.Fatalf("%s: phantom resilience events %+v", label, res)
				case (opt.Substrate == "fused") != (res.SubstrateChecks > 0) || res.SubstrateDetections != 0:
					t.Fatalf("%s: substrate checks %d, detections %d", label, res.SubstrateChecks, res.SubstrateDetections)
				case res.DeviceLosses != losses || res.FailStopRecoveries != losses:
					t.Fatalf("%s: %d device losses, %d restarts, want %d", label,
						res.DeviceLosses, res.FailStopRecoveries, losses)
				}
				if losses > 0 {
					if r, o := res.Checks(a); r > 1e-13 || o > 1e-13 {
						t.Fatalf("%s: residual %v, orthogonality %v after the restart", label, r, o)
					}
				}
			}
			var rows []knob
			for _, k := range invariants {
				if !k.poolOnly || family > 0 {
					rows = append(rows, k)
				}
			}
			for i, k := range rows {
				check([]knob{k})
				for _, k2 := range rows[i+1:] {
					if pair := []knob{k, k2}; compatible(pair) {
						check(pair)
					}
				}
			}
			// Deeper combinations, sampled: each row joins with
			// probability 1/2 and conflicting draws are redrawn.
			for s := 0; s < samples; {
				var set []knob
				for _, k := range rows {
					if rng.Intn(2) == 0 {
						set = append(set, k)
					}
				}
				if len(set) > 2 && compatible(set) {
					check(set)
					s++
				}
			}
		}
	}
}

// TestReduceMatchesHouseholderOracle checks H and Q from every schedule
// family against the textbook unblocked Householder reduction, written
// here without the lapack ports.
func TestReduceMatchesHouseholderOracle(t *testing.T) {
	for _, n := range []int{2, 3, 5, 17, 33} {
		a := matrix.Random(n, n, uint64(n))
		wantH, wantQ := householderHessenberg(a)
		tol := 1e-13 * a.NormFro()
		for _, opt := range []Options{{Algorithm: CPUOnly, NB: 4}, {NB: 4}, {NB: 4, DeviceCount: 2}} {
			res, err := Reduce(a, opt)
			if err != nil {
				t.Fatalf("n=%d %v K=%d: %v", n, opt.Algorithm, opt.DeviceCount, err)
			}
			if dh, dq := res.H().Sub(wantH).MaxAbs(), res.Q().Sub(wantQ).MaxAbs(); dh > tol || dq > tol {
				t.Fatalf("n=%d %v K=%d: |ΔH| = %g, |ΔQ| = %g, tolerance %g", n, opt.Algorithm, opt.DeviceCount, dh, dq, tol)
			}
		}
	}
}

// householderHessenberg reduces a to H = QᵀAQ one column at a time: the
// reflector P = I − 2vvᵀ/vᵀv with v = x − βe₁ maps x = A[k+1:, k] to βe₁,
// where β = −sign(x₀)‖x‖ is LAPACK's sign choice; then H ← PHP, Q ← QP.
func householderHessenberg(a *matrix.Matrix) (h, q *matrix.Matrix) {
	n := a.Rows
	h, q = a.Clone(), matrix.Identity(n)
	for k := 0; k+2 < n; k++ {
		v, norm := make([]float64, n), 0.0
		for i := k + 1; i < n; i++ {
			v[i] = h.At(i, k)
			norm += v[i] * v[i]
		}
		norm = math.Sqrt(norm)
		vv := 2 * norm * (norm + math.Abs(v[k+1])) // ‖x − βe₁‖²
		v[k+1] += math.Copysign(norm, v[k+1])
		for j := 0; j < n; j++ { // H ← PH
			s := 0.0
			for i := k + 1; i < n; i++ {
				s += v[i] * h.At(i, j)
			}
			for i := k + 1; i < n; i++ {
				h.Add(i, j, -2*s/vv*v[i])
			}
		}
		for _, m := range []*matrix.Matrix{h, q} { // H ← HP, Q ← QP
			for i := 0; i < n; i++ {
				s := 0.0
				for l := k + 1; l < n; l++ {
					s += m.At(i, l) * v[l]
				}
				for l := k + 1; l < n; l++ {
					m.Add(i, l, -2*s/vv*v[l])
				}
			}
		}
	}
	return h, q
}
