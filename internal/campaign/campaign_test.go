package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/matrix"
)

func TestPoissonMean(t *testing.T) {
	rng := matrix.NewRNG(1)
	const lambda = 2.5
	const samples = 5000
	sum := 0
	for i := 0; i < samples; i++ {
		sum += poisson(rng, lambda)
	}
	mean := float64(sum) / samples
	if math.Abs(mean-lambda) > 0.15 {
		t.Fatalf("Poisson mean %v, want ≈%v", mean, lambda)
	}
}

func TestPoissonZeroish(t *testing.T) {
	rng := matrix.NewRNG(2)
	zero := 0
	for i := 0; i < 1000; i++ {
		if poisson(rng, 0.01) == 0 {
			zero++
		}
	}
	if zero < 950 {
		t.Fatalf("λ=0.01 should almost always yield 0, got %d/1000 zeros", zero)
	}
}

func TestSamplePlansShape(t *testing.T) {
	rng := matrix.NewRNG(3)
	cell := Cell{N: 254, NB: 32, Lambda: 3, MinBit: 20, MaxBit: 62}
	total := 0
	for i := 0; i < 200; i++ {
		for _, p := range samplePlans(rng, cell, 6) {
			total++
			if p.TargetIter < 0 || p.TargetIter >= 6 {
				t.Fatalf("iteration out of range: %+v", p)
			}
			if !p.BitFlip || p.Bit < 20 || p.Bit > 62 {
				t.Fatalf("bad bit plan: %+v", p)
			}
		}
	}
	if total < 400 || total > 800 {
		t.Fatalf("λ=3 over 200 runs gave %d plans, expected ≈600", total)
	}
}

func TestSamplePlansRegions(t *testing.T) {
	for region, allowed := range map[fault.Region]map[fault.Area]bool{
		fault.RegionH:     {fault.Area1: true, fault.Area2: true},
		fault.RegionQ:     {fault.Area3: true},
		fault.RegionPanel: {fault.AreaPanel: true},
	} {
		rng := matrix.NewRNG(11)
		cell := Cell{N: 254, NB: 32, Lambda: 2, MinBit: 20, MaxBit: 62, Region: region}
		seen := 0
		for i := 0; i < 100; i++ {
			for _, p := range samplePlans(rng, cell, 6) {
				seen++
				if !allowed[p.Area] {
					t.Fatalf("region %s sampled area %s", region, p.Area)
				}
				if region == fault.RegionQ && p.TargetIter == 0 {
					t.Fatalf("region q sampled iteration 0")
				}
			}
		}
		if seen == 0 {
			t.Fatalf("region %s sampled no plans", region)
		}
	}
}

func TestDeriveTrialSeedIndependent(t *testing.T) {
	seen := map[uint64]bool{}
	for cell := 0; cell < 8; cell++ {
		for trial := 0; trial < 64; trial++ {
			s := deriveTrialSeed(42, cell, trial)
			if seen[s] {
				t.Fatalf("seed collision at cell %d trial %d", cell, trial)
			}
			seen[s] = true
			if s != deriveTrialSeed(42, cell, trial) {
				t.Fatal("seed derivation is not a pure function")
			}
		}
	}
}

func TestRunCampaignSmall(t *testing.T) {
	rep, err := (&Sweep{Ns: []int{126}, NBs: []int{16}, TrialsPerCell: 12, Seed: 7}).Run()
	if err != nil {
		t.Fatal(err)
	}
	cell := &rep.Cells[0]
	if len(rep.Cells) != 1 || cell.Trials != 12 {
		t.Fatalf("%d cells, %d trials", len(rep.Cells), cell.Trials)
	}
	// The scheme's purpose: no silent corruption.
	for _, res := range rep.results[0] {
		if r := res.record; r.outcome() == SilentCorrupt {
			t.Fatalf("silent corruption: injections %+v residual %v", r.Plans, r.Residual)
		}
	}
	// With λ=1 over 12 trials, some errors must have been injected and
	// handled.
	if cell.Injections == 0 {
		t.Fatal("campaign injected nothing")
	}
	if cell.Outcome(Recovered)+cell.Outcome(SilentBenign)+cell.Outcome(Uncorrectable) == 0 {
		t.Fatalf("no faulted trial completed: %+v", cell.ByName)
	}
	var b bytes.Buffer
	rep.Print(&b)
	if want := fmt.Sprintf("totals: %d injections across 12 trials", cell.Injections); !strings.Contains(b.String(), want) {
		t.Fatalf("report output lacks %q:\n%s", want, b.String())
	}
}

func TestJSONFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5e-17, math.Inf(1), math.Inf(-1), math.NaN()} {
		rec := TrialRecord{Residual: JSONFloat(v)}
		var buf bytes.Buffer
		if err := writeTrialRecord(&buf, rec); err != nil {
			t.Fatalf("residual %v does not serialize: %v", v, err)
		}
		var back TrialRecord
		if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &back); err != nil {
			t.Fatal(err)
		}
		got := float64(back.Residual)
		if got != v && !(math.IsNaN(got) && math.IsNaN(v)) {
			t.Fatalf("residual %v round-tripped to %v", v, got)
		}
	}
}

// A one-cell sweep still needs a positive N and trial count.
func TestRunValidation(t *testing.T) {
	for _, s := range []*Sweep{{Ns: []int{0}, TrialsPerCell: 1}, {Ns: []int{126}}} {
		if _, err := s.Run(); err == nil {
			t.Fatalf("invalid one-cell sweep %+v accepted", s)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		CleanPass: "clean-pass", Recovered: "recovered", SilentBenign: "silent-benign",
		SilentCorrupt: "silent-corrupt", Uncorrectable: "uncorrectable",
	} {
		if o.String() != want {
			t.Fatalf("%d prints %q", o, o.String())
		}
	}
}
