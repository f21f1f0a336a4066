// Package campaign is the reliability harness of the reproduction: a
// parallel, deterministic, sweep-capable Monte-Carlo soft-error campaign
// engine for the fault-tolerant reduction (the statistical counterpart of
// the paper's Section VI evaluation).
//
// Errors arrive as a Poisson process over the blocked iterations (the
// paper's Section I motivates the work with DRAM/GPU FIT rates — 51.7
// errors/week on ASC Q, 2×10⁻⁵ per MemtestG80 iteration), strike a region
// chosen proportionally to its memory footprint (or pinned by a
// fault.Region sweep axis), and flip a random bit of the IEEE-754
// representation. Each trial is classified by outcome, giving the
// detection-coverage and recovery-overhead statistics that a reliability
// engineer would ask of the paper's scheme (Tables II-III, Figures 5-6).
//
// Determinism contract (DESIGN.md §8): every trial's random stream is
// derived solely from (campaign seed, cell index, trial index), never from
// scheduling, so a sweep produces bitwise-identical trial records,
// aggregate reports, and BENCH_campaign.json artifacts at any worker
// count. Trials fan out across a bounded worker pool (the internal/blas
// pool pattern) and their JSONL records are flushed in canonical order as
// the completed prefix grows, which is what makes `-resume` from a partial
// file sound.
package campaign

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/matrix"
)

// Outcome classifies one trial.
type Outcome int

const (
	// CleanPass: no error injected, factorization correct.
	CleanPass Outcome = iota
	// Recovered: at least one error injected, all detected/corrected,
	// result numerically correct.
	Recovered
	// SilentBenign: an error went undetected but the result is still
	// numerically correct (e.g. a low-order mantissa flip below the
	// detection threshold, or a flip in dead storage).
	SilentBenign
	// SilentCorrupt: an error went undetected and corrupted the result —
	// the failure mode the scheme exists to prevent.
	SilentCorrupt
	// Uncorrectable: detection fired but the error pattern could not be
	// attributed (rectangle/ambiguous), reported rather than mis-corrected.
	Uncorrectable
	// numOutcomes bounds the Outcome enum for aggregation arrays.
	numOutcomes = int(Uncorrectable) + 1
)

func (o Outcome) String() string {
	switch o {
	case CleanPass:
		return "clean-pass"
	case Recovered:
		return "recovered"
	case SilentBenign:
		return "silent-benign"
	case SilentCorrupt:
		return "silent-corrupt"
	case Uncorrectable:
		return "uncorrectable"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// ParseOutcome inverts Outcome.String (used when resuming from JSONL).
func ParseOutcome(s string) (Outcome, error) {
	for o := CleanPass; o <= Uncorrectable; o++ {
		if o.String() == s {
			return o, nil
		}
	}
	return CleanPass, fmt.Errorf("campaign: unknown outcome %q", s)
}

// samplePlans draws a Poisson number of single-error plans, each at a
// uniform iteration, an area weighted by its footprint within the region,
// and a random bit. The rng is the trial's private stream, so the draw is
// independent of every other trial.
func samplePlans(rng *matrix.RNG, cell Cell, iters int) []fault.Plan {
	k := poisson(rng, cell.Lambda)
	var plans []fault.Plan
	for e := 0; e < k; e++ {
		iter := rng.Intn(iters)
		if cell.Region == fault.RegionQ && iters > 1 {
			// Area 3 needs at least one finished panel.
			iter = 1 + rng.Intn(iters-1)
		}
		p := iter * cell.NB
		area := sampleArea(rng, cell.Region, cell.N, p)
		bit := cell.MinBit + uint(rng.Intn(int(cell.MaxBit-cell.MinBit+1)))
		plans = append(plans, fault.Plan{
			Area:       area,
			TargetIter: iter,
			BitFlip:    true,
			Bit:        bit,
			Seed:       rng.Uint64(),
		})
	}
	return plans
}

// sampleArea picks the struck area for an error at panel column p,
// restricted to the cell's region and weighted by memory footprint.
func sampleArea(rng *matrix.RNG, region fault.Region, n, p int) fault.Area {
	switch region {
	case fault.RegionQ:
		if p == 0 {
			// No finished Householder columns exist yet; the nearest
			// host-bound data is the lower trailing block.
			return fault.Area2
		}
		return fault.Area3
	case fault.RegionPanel:
		return fault.AreaPanel
	}
	kRows := p + 1
	// Footprints at that iteration: Area1 is the top strip of the
	// trailing columns, Area2 the lower trailing block, Area3 the
	// finished Householder storage.
	w1 := float64(kRows) * float64(n-p)
	w2 := float64(n-kRows) * float64(n-p)
	w3 := float64(p) * float64(n-p) / 2
	if region == fault.RegionH {
		w3 = 0
	}
	r := rng.Float64() * (w1 + w2 + w3)
	switch {
	case r < w1:
		return fault.Area1
	case r < w1+w2:
		return fault.Area2
	default:
		if p == 0 {
			return fault.Area2
		}
		return fault.Area3
	}
}

// poisson samples Poisson(lambda) with Knuth's method (lambda is small).
func poisson(rng *matrix.RNG, lambda float64) int {
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}
