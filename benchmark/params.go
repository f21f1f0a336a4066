package main

import (
	"math/rand/v2"

	"repro/internal/bench"
)

// params are the workload sizes. The full scale is the benchmark; the
// tiny scale only exists so tests can run every workload in well under a
// second, and its numbers mean nothing.
type params struct {
	hessN int

	faultN, faultK int

	serveSizes      []int
	serveBatchN     int
	serveBatchItems int
	serveRate       float64 // phase-A arrivals per second
	serveBurst      int     // phase-B jobs per burst
	serveRecheck    int     // jobs recomputed via core.Reduce
	serveProbeN     int     // order of the reference reduction and probes

	fig6Sizes []int // FT and baseline points
	fig6Pool  []int // FT points on a pool of fig6PoolK devices
	fig6PoolK int
	fig6Probe int // order of the probe arms

	// Shapes of the direct BLAS probes and orders of the digest probe.
	gemmM, gemmK, gemvN, gemmCube int
	digestNs                      [2]int
}

func paramsFor(tiny bool) params {
	if tiny {
		return params{
			hessN:  96,
			faultN: 96, faultK: 2,
			serveSizes: []int{16, 24, 32}, serveBatchN: 24, serveBatchItems: 4,
			serveRate: 50, serveBurst: 20, serveRecheck: 4, serveProbeN: 32,
			fig6Sizes: []int{126, 254}, fig6Pool: []int{254}, fig6PoolK: 4, fig6Probe: 254,
			gemmM: 128, gemmK: 32, gemvN: 128, gemmCube: 64,
			digestNs: [2]int{256, 1024},
		}
	}
	return params{
		hessN:  1024,
		faultN: 512, faultK: 2,
		serveSizes: []int{64, 128, 256}, serveBatchN: 128, serveBatchItems: 4,
		serveRate: 50, serveBurst: 40, serveRecheck: 32, serveProbeN: 256,
		fig6Sizes: bench.PaperSizes, fig6Pool: []int{2046, 4030}, fig6PoolK: 4, fig6Probe: 4030,
		gemmM: 1024, gemmK: 32, gemvN: 1024, gemmCube: 512,
		digestNs: [2]int{256, 1024},
	}
}

// newRand is the workload's seeded generator; stream separates the
// workloads so each draws its own sequence from one seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// inputSeed derives the matrix.Random seed of input i of a workload.
func inputSeed(seed, stream uint64, i int) uint64 {
	return newRand(seed, stream^uint64(i+1)*0x9e3779b97f4a7c15).Uint64()
}
