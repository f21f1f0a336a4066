package campaign_test

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/fault"
)

// ExampleSweep_Run_oneCell executes a small single-cell campaign: Poisson
// error arrivals, footprint-weighted areas, random bit flips. The seed
// fixes every trial, so the output is reproducible at any worker count.
func ExampleSweep_Run_oneCell() {
	s := &campaign.Sweep{Ns: []int{96}, NBs: []int{16}, TrialsPerCell: 6, Seed: 5, Workers: 2}
	rep, err := s.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("trials=%d injections=%d silent-corrupt=%d\n",
		rep.TotalTrials, rep.Injections, rep.Outcome(campaign.SilentCorrupt))
	// Output: trials=6 injections=5 silent-corrupt=0
}

// ExampleSweep_Run sweeps a grid of problem sizes and error rates and
// reads the per-cell detection coverage off the aggregate report.
func ExampleSweep_Run() {
	s := &campaign.Sweep{
		Ns:            []int{96, 126},
		Lambdas:       []float64{0.5, 1.5},
		NBs:           []int{16},
		Regions:       []fault.Region{fault.RegionAll},
		TrialsPerCell: 3,
		Seed:          7,
		Workers:       4,
	}
	rep, err := s.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("cells=%d trials=%d silent-corrupt=%d\n",
		len(rep.Cells), rep.TotalTrials, rep.Outcome(campaign.SilentCorrupt))
	// Output: cells=4 trials=12 silent-corrupt=0
}
