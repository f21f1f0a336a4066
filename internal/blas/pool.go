package blas

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Shared bounded worker pool for the parallel BLAS paths.
//
// Every routine that parallelizes (Dgemm, Dgemv, Dger, Dsyr2k, Dtrmm)
// dispatches onto one process-wide pool instead of spawning per-call
// goroutines. The pool grows lazily up to the largest ceiling ever
// requested via SetMaxProcs and never beyond it; idle workers cost one
// parked goroutine each. Work is distributed dynamically (an atomic index
// counter), so uneven shards — the triangular column costs of Dsyr2k, the
// ragged edge tiles of Dgemm — balance without static partitioning.
//
// Determinism: parallel shards only ever write disjoint regions of the
// output, and every output element is computed with exactly the same
// operation order regardless of the worker count, so results are bitwise
// identical between serial and parallel execution. That property is what
// lets the simulated device, the FT checksum proofs, and the tests treat
// SetMaxProcs as a pure performance knob.

// maxProcs bounds the number of shards any BLAS call fans out to. It is a
// variable rather than a constant so the simulated-GPU package can pin the
// "device" kernels to a chosen width and tests can force serial execution.
var (
	maxProcsMu sync.RWMutex
	maxProcs   = runtime.GOMAXPROCS(0)
)

// SetMaxProcs sets the parallelism ceiling for the BLAS routines and
// returns the previous value. n < 1 is treated as 1; n == 1 pins every
// routine to its serial path (no pool dispatch at all).
func SetMaxProcs(n int) int {
	if n < 1 {
		n = 1
	}
	maxProcsMu.Lock()
	prev := maxProcs
	maxProcs = n
	maxProcsMu.Unlock()
	return prev
}

func procs() int {
	maxProcsMu.RLock()
	defer maxProcsMu.RUnlock()
	return maxProcs
}

var (
	poolMu      sync.Mutex
	poolCh      chan func()
	poolWorkers int
)

// poolEnsure guarantees at least w resident workers (growing the pool, never
// shrinking it) and returns the submission channel.
func poolEnsure(w int) chan func() {
	poolMu.Lock()
	defer poolMu.Unlock()
	if poolCh == nil {
		poolCh = make(chan func(), 1024)
	}
	for poolWorkers < w {
		poolWorkers++
		go func() {
			for f := range poolCh {
				f()
			}
		}()
	}
	return poolCh
}

// ParallelFor invokes fn(i) exactly once for every i in [0, n), using up to
// procs() (the SetMaxProcs ceiling) concurrent shard runners on the shared
// worker pool that pull indices from a shared atomic counter. Callers
// outside the package use it to shard their own kernels; they keep the
// determinism contract by writing disjoint outputs from each index. The
// calling goroutine always participates; if the pool's submission buffer
// is full the extra runners execute inline on the caller, so the call can
// never deadlock, even when BLAS routines are invoked concurrently from
// many goroutines.
func ParallelFor(n int, fn func(int)) {
	p := procs()
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	ch := poolEnsure(p - 1)
	var next atomic.Int64
	body := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < p-1; w++ {
		wg.Add(1)
		g := func() {
			defer wg.Done()
			body()
		}
		select {
		case ch <- g:
		default:
			g()
		}
	}
	body()
	wg.Wait()
}
