package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// cancelHook cancels the context from inside the reduction at one
// iteration boundary and records how far the loop got afterwards — the
// proof that cancellation is observed within one iteration.
type cancelHook struct {
	cancel  context.CancelFunc
	at      int
	maxIter int
}

func (h *cancelHook) BeforeIteration(ic *ft.IterCtx) {
	if ic.Iter > h.maxIter {
		h.maxIter = ic.Iter
	}
	if ic.Iter == h.at {
		h.cancel()
	}
}

func (h *cancelHook) ConsumePendingH() int { return 0 }

// TestReduceCancelMidIteration is the contract test for Options.Ctx: a
// cancel that lands between iterations surfaces as context.Canceled
// within one iteration, and both the device and the shared BLAS pool
// stay reusable — the same device immediately runs a full reduction.
func TestReduceCancelMidIteration(t *testing.T) {
	n, nb := 96, 8
	a := matrix.Random(n, n, 3)
	dev := gpu.New(sim.K40c(), gpu.Real)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := &cancelHook{cancel: cancel, at: 2}
	res, err := Reduce(a, Options{Ctx: ctx, NB: nb, Device: dev, Hook: hook})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Reduce returned (%v, %v), want context.Canceled", res, err)
	}
	if hook.maxIter != hook.at {
		t.Fatalf("loop reached iteration %d after a cancel at %d (not within one iteration)",
			hook.maxIter, hook.at)
	}

	// The device and the BLAS pool must have been left reusable: rerun
	// the full reduction on the very same device.
	res, err = Reduce(a, Options{NB: nb, Device: dev})
	if err != nil {
		t.Fatalf("reduce after cancel on the same device: %v", err)
	}
	if r, o := res.Checks(a); r > 1e-13 || o > 1e-13 {
		t.Fatalf("post-cancel residual %v, orthogonality %v", r, o)
	}
}

// TestReduceCancelledBeforeStart: an already-cancelled context stops
// every algorithm before any work.
func TestReduceCancelledBeforeStart(t *testing.T) {
	a := matrix.Random(32, 32, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range []Algorithm{FaultTolerant, Baseline, CPUOnly} {
		if _, err := Reduce(a, Options{Ctx: ctx, Algorithm: alg, NB: 8}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v with cancelled ctx: %v", alg, err)
		}
	}
	if _, err := ReduceSym(a, SymOptions{Ctx: ctx, NB: 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("hybrid ReduceSym with cancelled ctx: %v", err)
	}
	if _, err := ReduceSym(a, SymOptions{Ctx: ctx, NB: 8, FaultTolerant: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ft ReduceSym with cancelled ctx: %v", err)
	}
}

// symCancelHook cancels the symmetric reduction at one iteration.
type symCancelHook struct {
	cancel  context.CancelFunc
	at      int
	maxIter int
}

func (h *symCancelHook) BeforeIteration(iter, panel int, w *matrix.Matrix) {
	if iter > h.maxIter {
		h.maxIter = iter
	}
	if iter == h.at {
		h.cancel()
	}
}

// TestReduceSymCancelMidIteration mirrors the general-path contract for
// the resilient tridiagonalization.
func TestReduceSymCancelMidIteration(t *testing.T) {
	n, nb := 96, 8
	a := matrix.RandomSymmetric(n, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := &symCancelHook{cancel: cancel, at: 1}
	_, err := ReduceSym(a, SymOptions{Ctx: ctx, NB: nb, FaultTolerant: true, Hook: hook})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ReduceSym returned %v, want context.Canceled", err)
	}
	if hook.maxIter > hook.at+1 {
		t.Fatalf("symmetric loop reached iteration %d after a cancel at %d", hook.maxIter, hook.at)
	}

	// The shared BLAS pool must still work: run to completion.
	res, err := ReduceSym(a, SymOptions{NB: nb, FaultTolerant: true})
	if err != nil {
		t.Fatalf("reduce after cancel: %v", err)
	}
	if _, err := res.Eigenvalues(); err != nil {
		t.Fatalf("eigenvalues after cancel: %v", err)
	}
}

// TestReduceDeadlineExceeded: a deadline surfaces as DeadlineExceeded,
// distinguishable from a user cancel.
func TestReduceDeadlineExceeded(t *testing.T) {
	a := matrix.Random(32, 32, 1)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := Reduce(a, Options{Ctx: ctx, NB: 8}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline Reduce: %v", err)
	}
}
