package ft_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// spanDigest hashes every traced span of a run — lane, kind and the bits
// of its start and end — in recording order, so two runs share a digest
// only if they issued the same modeled ops at the same instants.
func spanDigest(spans []gpu.Span) string {
	h := fnv.New64a()
	var buf [16]byte
	for _, s := range spans {
		h.Write([]byte(s.Lane))
		h.Write([]byte{0})
		h.Write([]byte(s.Kind))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(s.Start))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(s.End))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%d:%016x", len(spans), h.Sum64())
}

// TestSingleDeviceSchedulePinned pins the single-device schedule of both
// Hessenberg algorithms span for span: a refactor of the blocked loop
// must keep every modeled op's lane, kind, start and end. The rows cover
// the lookahead and overlap ablations, a re-execution after an Area 1 or
// Area 2 hit (swept and fused substrates), the host-side Q repair, the
// post-processing comparator's rerun, the final H sweep, and a cost-only
// run at a paper size. After a deliberate schedule change, regenerate
// the pins with
//
//	go test ./internal/ft -run TestSingleDeviceSchedulePinned -v
//
// and copy the logged digests into the table.
func TestSingleDeviceSchedulePinned(t *testing.T) {
	inject := func(area fault.Area, iter int) *fault.Injector {
		return fault.New(fault.Plan{Area: area, TargetIter: iter, Seed: 3})
	}
	type row struct {
		name     string
		baseline bool
		n        int
		costOnly bool
		opt      ft.Options
		hook     *fault.Injector
		// want is the span count and FNV-64a digest.
		want string
		// fired checks the run exercised the path the row is about.
		fired func(*ft.Result) bool
	}
	detected := func(r *ft.Result) bool { return r.Detections > 0 && r.Reexecutions > 0 }
	rows := []row{
		{name: "ft", n: 256, want: "4363:6c3ee2736312f49c"},
		{name: "ft/no-lookahead", n: 256, opt: ft.Options{DisableLookahead: true}, want: "4237:fd671cb4474091ea"},
		{name: "ft/no-overlap", n: 256, opt: ft.Options{DisableOverlap: true}, want: "4363:c2d7be54bf91db3c"},
		{name: "ft/no-lookahead/no-overlap", n: 256, opt: ft.Options{DisableLookahead: true, DisableOverlap: true}, want: "4237:bc01481213a6c35e"},
		{name: "baseline", baseline: true, n: 256, want: "4225:0ccb2c3421bc18de"},
		{name: "baseline/no-lookahead", baseline: true, n: 256, opt: ft.Options{DisableLookahead: true}, want: "4113:ddc1fe38d700fbd4"},
		{name: "baseline/no-overlap", baseline: true, n: 256, opt: ft.Options{DisableOverlap: true}, want: "4225:04bc4e9f76d78ca3"},
		{name: "baseline/no-lookahead/no-overlap", baseline: true, n: 256, opt: ft.Options{DisableLookahead: true, DisableOverlap: true}, want: "4113:dfe0b4dd5aa8e16e"},
		{name: "baseline/area2@2", baseline: true, n: 256, hook: inject(fault.Area2, 2), want: "4225:2d529fe22b1622c4"},
		{name: "ft/area2@2", n: 256, hook: inject(fault.Area2, 2), want: "4669:5221598175f63e98", fired: detected},
		{name: "ft/area2@2/fused", n: 256, opt: ft.Options{Substrate: ft.SubstrateFused}, hook: inject(fault.Area2, 2), want: "4669:d1d4805972d3a4d8", fired: detected},
		{name: "ft/area1@3/no-lookahead/no-overlap", n: 256, opt: ft.Options{DisableLookahead: true, DisableOverlap: true}, hook: inject(fault.Area1, 3), want: "4534:0c45c4b28ea975f2", fired: detected},
		{name: "ft/area3@2", n: 256, hook: inject(fault.Area3, 2), want: "4364:0c2ef46209f875ee", fired: func(r *ft.Result) bool { return r.QCorrections > 0 }},
		{name: "ft/postprocess/area2@2", n: 256, opt: ft.Options{PostProcess: true}, hook: inject(fault.Area2, 2), want: "8695:291529f17feaa5aa", fired: func(r *ft.Result) bool { return r.Detections > 0 && r.Recoveries > 0 }},
		{name: "ft/final-h-check", n: 256, opt: ft.Options{FinalHCheck: true}, want: "4368:6122421b709f5054"},
		{name: "ft/costonly/n1022", n: 1022, costOnly: true, want: "18331:4906dd0754482c9d"},
		{name: "baseline/costonly/n1022", baseline: true, n: 1022, costOnly: true, want: "17761:615a1229af9a5e1a"},
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			mode := gpu.Real
			a := matrix.Random(tc.n, tc.n, 7)
			if tc.costOnly {
				mode, a = gpu.CostOnly, matrix.Shape(tc.n, tc.n)
			}
			dev := gpu.New(sim.K40c(), mode)
			dev.EnableTrace()
			opt := tc.opt
			opt.NB, opt.Device = 16, dev
			if tc.baseline {
				hopt := hybrid.Options{NB: 16, Device: dev, DisableLookahead: opt.DisableLookahead, DisableOverlap: opt.DisableOverlap}
				if tc.hook != nil {
					hopt.BeforeIteration = tc.hook.HybridHook(dev)
				}
				if _, err := hybrid.Reduce(a, hopt); err != nil {
					t.Fatal(err)
				}
			} else {
				if tc.hook != nil {
					opt.Hook = tc.hook
				}
				res, err := ft.Reduce(a, opt)
				if err != nil {
					t.Fatal(err)
				}
				if tc.fired != nil && !tc.fired(res) {
					t.Fatalf("the injection did not exercise the path: %d detection(s), %d re-execution(s), %d recovery(ies), %d Q correction(s)",
						res.Detections, res.Reexecutions, res.Recoveries, res.QCorrections)
				}
			}
			got := spanDigest(dev.Trace())
			t.Logf("digest %s", got)
			if got != tc.want {
				t.Errorf("schedule digest %s, pinned %s", got, tc.want)
			}
		})
	}
}
