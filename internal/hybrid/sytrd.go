package hybrid

import (
	"context"
	"errors"

	"repro/internal/blas"
	"repro/internal/gpu"
	"repro/internal/lapack"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// SymGuard is a protection layer over the symmetric schedule: the
// fault-tolerant tridiagonalization (ft.ReduceSym) is ReduceSym with a
// guard whose checksums ride the unchanged data path.
type SymGuard interface {
	// Start runs once the matrix is on the device, before the first
	// blocked iteration.
	Start(s SymState)
	// Boundary runs at the start of blocked iteration iter (panel p),
	// before the panel offload reads the device matrix.
	Boundary(iter, p int)
	// AfterOffload runs once the panel is on the host, before the host
	// factorizes it over its pristine values.
	AfterOffload(iter, p int)
	// AfterUpdate runs once the rank-2k trailing update is issued, while
	// the device panel still holds V with its unit subdiagonal. redo asks
	// for the iteration to run again from the panel offload.
	AfterUpdate(iter, p int) (redo bool, err error)
}

// SymState is the live state of a symmetric reduction, as a SymGuard
// sees it.
type SymState struct {
	Dev *gpu.Device
	// A is the n×n device matrix (lower triangle referenced); W holds
	// DLATRD's W factor of the current panel in its rows ≥ NB.
	A, W *gpu.Matrix
	// HostA is the host matrix under assembly: the current panel's
	// columns arrive there with the offload.
	HostA *matrix.Matrix
	N, NB int
}

// symBlocked reports whether ReduceSym runs a blocked iteration at
// panel p; the unblocked tail takes over at the first p where it does
// not.
func symBlocked(n, p, nb int) bool { return n-p > max(nb, 2)+nb }

// SymBlockedIterations reports how many blocked iterations ReduceSym
// runs on an n×n matrix at block size nb (DefaultNB when nb ≤ 0); a
// fault hook's iterations are numbered 0 up to that count.
func SymBlockedIterations(n, nb int) int {
	if nb <= 0 {
		nb = DefaultNB
	}
	iters := 0
	for p := 0; symBlocked(n, p, nb); p += nb {
		iters++
	}
	return iters
}

// ReduceSym runs the hybrid symmetric tridiagonal reduction (the DSYTRD
// sibling of Reduce, MAGMA's magma_dsytrd work split): the symmetric
// matrix lives on the device (lower triangle referenced), each panel is
// factorized on the CPU with the large symmetric matrix-vector product
// per column executed on the device, and the rank-2k trailing update runs
// on the device. This is the one blocked DSYTRD schedule of the paper's
// future-work direction ("the rest of the hybrid two-sided
// factorizations"): with a nil guard it is the baseline, and
// ft.ReduceSym runs it with the checksum guard g.
func ReduceSym(a *matrix.Matrix, opt Options, g SymGuard) (*SymResult, error) {
	n := a.Rows
	if n != a.Cols {
		return nil, errors.New("hybrid: matrix must be square")
	}
	if opt.Device == nil {
		return nil, errors.New("hybrid: Options.Device is required")
	}
	nb := opt.NB
	if nb <= 0 {
		nb = DefaultNB
	}
	dev := opt.Device
	pp := dev.Params
	if opt.Obs != nil {
		dev.SetObs(opt.Obs)
	}
	dev.SetJob(opt.Trace.JobID())
	sp := opt.Trace.Span("hybrid.reduce_sym", opt.Trace.ParentSpan())
	defer opt.Trace.EndSpan(sp)
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	dev.SetContext(ctx)

	hostA := dev.Mode.HostCopy(a)
	res := &SymResult{
		N: n, NB: nb,
		D:      make([]float64, max(n, 1)),
		E:      make([]float64, max(n-1, 1)),
		Tau:    make([]float64, max(n-1, 1)),
		Packed: hostA,
	}
	if n <= 1 {
		if n == 1 {
			res.D[0] = dev.Mode.HostElem(hostA, 0, 0)
		}
		return res, nil
	}

	dev.SetPhase("setup")
	dA := dev.Alloc(n, n)
	dev.H2D(dA, 0, 0, hostA)
	dVcol := dev.Alloc(n, 1)
	dYcol := dev.Alloc(n, 1)
	dW := dev.Alloc(n, nb)
	defer func() {
		dev.Free(dA)
		dev.Free(dVcol)
		dev.Free(dYcol)
		dev.Free(dW)
	}()

	wHost := dev.Mode.HostMatrix(n, nb)
	if g != nil {
		g.Start(SymState{Dev: dev, A: dA, W: dW, HostA: hostA, N: n, NB: nb})
	}
	var prevUpd sim.Event
	p := 0
	for ; symBlocked(n, p, nb); p += nb {
		iter, np := p/nb, n-p
		if g != nil {
			g.Boundary(iter, p)
		}
		for redo := true; redo; {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Panel (lower part of columns p..p+nb-1) to the host.
			dev.SetPhase("panel")
			panel := hostA.View(p, p, np, nb)
			dev.Sync(dev.D2HAsync(panel, dA, p, p, prevUpd))
			if g != nil {
				g.AfterOffload(iter, p)
			}

			// Hybrid DLATRD: CPU panel ops, device SYMV per column.
			symPanel(dev, hostA, wHost, res.E, res.Tau, dA, dVcol, dYcol, n, p, nb)

			// Upload the factored panel and W's trailing rows, then apply
			// the rank-2k trailing update on the device.
			dev.SetPhase("trailing_update")
			dev.H2D(dA, p, p, hostA.View(p, p, np, nb))
			dev.H2D(dW, nb, 0, wHost.View(nb, 0, np-nb, nb))
			prevUpd = dev.Syr2k(blas.Lower, np-nb, nb, -1, dA, p+nb, p, dW, nb, 0, 1, dA, p+nb, p+nb)
			redo = false
			if g != nil {
				var err error
				if redo, err = g.AfterUpdate(iter, p); err != nil {
					return nil, err
				}
			}
		}

		// Restore the subdiagonal entries and record the diagonal, as
		// DSYTRD does after the SYR2K; mirror the fix to the device.
		if dev.Mode == gpu.Real {
			for j := p; j < p+nb; j++ {
				hostA.Set(j+1, j, res.E[j])
				res.D[j] = hostA.At(j, j)
			}
		}
		prevUpd = dev.Set(dA, p+nb, p+nb-1, res.E[p+nb-1], prevUpd)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Remaining block: host-side unblocked reduction.
	dev.SetPhase("cleanup")
	if p < n {
		rem := hostA.View(p, p, n-p, n-p)
		dev.Sync(dev.D2HAsync(rem, dA, p, p, prevUpd))
	}
	dev.HostOp(symCleanupCost(pp, n-p), func() {
		lapack.Dsytd2(n-p, hostA.Data[p*hostA.Stride+p:], hostA.Stride, res.D[p:], res.E[p:], res.Tau[p:])
	})
	dev.DeviceSynchronize()
	dev.SetPhase("")
	dev.FinishRun()

	res.SimSeconds = dev.Elapsed()
	if res.SimSeconds > 0 {
		// Tridiagonal reduction costs 4/3·N³ flops.
		res.ModelGFLOPS = 4.0 / 3.0 * float64(n) * float64(n) * float64(n) / res.SimSeconds / 1e9
	}
	return res, nil
}

// SymResult carries the hybrid tridiagonalization output.
type SymResult struct {
	N, NB int
	// D, E: the tridiagonal factor. Packed/Tau: the reflectors
	// (Dorghr-compatible layout).
	D, E   []float64
	Packed *matrix.Matrix
	Tau    []float64
	// SimSeconds / ModelGFLOPS: simulated performance (4/3·N³ flops).
	SimSeconds  float64
	ModelGFLOPS float64
}

// Q forms the orthogonal factor explicitly.
func (r *SymResult) Q() *matrix.Matrix {
	return lapack.Dorghr(r.N, r.Packed.Data, r.Packed.Stride, r.Tau)
}

// T builds the dense tridiagonal factor.
func (r *SymResult) T() *matrix.Matrix {
	t := matrix.New(r.N, r.N)
	for i := 0; i < r.N; i++ {
		t.Set(i, i, r.D[i])
		if i > 0 {
			t.Set(i, i-1, r.E[i-1])
			t.Set(i-1, i, r.E[i-1])
		}
	}
	return t
}

// symCleanupCost models the host-side unblocked DSYTD2 on an m×m block.
func symCleanupCost(pp sim.Params, m int) float64 {
	cost := 0.0
	for c := 0; c < m-1; c++ {
		k := m - 1 - c
		cost += 2 * pp.VecHost(k)     // dlarfg
		cost += pp.GemvHost(k, k) / 2 // dsymv (half the matrix)
		cost += 2 * pp.VecHost(k)     // dot + axpy
		cost += pp.GemvHost(k, k) / 2 // dsyr2
	}
	return cost
}

// symPanel runs the hybrid DLATRD for the panel at p: all level-1/2 panel
// arithmetic on the host (charged to the host timeline), with the large
// symmetric matrix-vector product per column dispatched to the device —
// the same CPU/GPU split as panelFactor uses for DLAHR2.
func symPanel(dev *gpu.Device, hostA, w *matrix.Matrix, e, tau []float64, dA *gpu.Matrix, dVcol, dYcol *gpu.Matrix, n, p, nb int) {
	pp := dev.Params
	a := hostA.Data
	lda := hostA.Stride
	ldw := w.Stride
	np := n - p
	ytmpM := dev.Mode.HostMatrix(np, 1)

	for i := 0; i < nb; i++ {
		gi := p + i // global column
		// Update A(gi:n-1, gi) with the panel computed so far.
		dev.HostOp(2*pp.GemvHost(np-i, i), func() {
			blas.Dgemv(blas.NoTrans, np-i, i, -1, a[p*lda+gi:], lda, w.Data[i:], ldw, 1, a[gi*lda+gi:], 1)
			blas.Dgemv(blas.NoTrans, np-i, i, -1, w.Data[i:], ldw, a[p*lda+gi:], lda, 1, a[gi*lda+gi:], 1)
		})
		// Generate the reflector annihilating A(gi+2:n-1, gi).
		dev.HostOp(2*pp.VecHost(np-i-1), func() {
			beta, taui := lapack.Dlarfg(np-i-1, a[gi*lda+gi+1], a[gi*lda+min(gi+2, n-1):], 1)
			e[gi] = beta
			tau[gi] = taui
			a[gi*lda+gi+1] = 1
		})
		// Device: the big symmetric matrix-vector product
		// W(i+1:, i) = A(gi+1:, gi+1:)·v (block-start values, which the
		// device still holds for this iteration).
		m := np - i - 1
		up := dev.H2DAsync(dVcol, 0, 0, hostA.View(gi+1, gi, m, 1))
		kg := dev.Symv(blas.Lower, m, 1, dA, gi+1, gi+1, dVcol, 0, 0, 0, dYcol, 0, 0, up)
		dev.Sync(dev.D2HAsync(ytmpM.View(0, 0, m, 1), dYcol, 0, 0, kg))
		dev.HostOp(pp.VecHost(m), func() {
			blas.Dcopy(m, ytmpM.Data, 1, w.Data[i*ldw+i+1:], 1)
		})
		// Host: the four cross-term corrections, the tau scaling, and the
		// v-orthogonalization (reference DLATRD order).
		dev.HostOp(4*pp.GemvHost(m, i)+3*pp.VecHost(m), func() {
			v := a[gi*lda+gi+1:]
			blas.Dgemv(blas.Trans, m, i, 1, w.Data[i+1:], ldw, v, 1, 0, w.Data[i*ldw:], 1)
			blas.Dgemv(blas.NoTrans, m, i, -1, a[p*lda+gi+1:], lda, w.Data[i*ldw:], 1, 1, w.Data[i*ldw+i+1:], 1)
			blas.Dgemv(blas.Trans, m, i, 1, a[p*lda+gi+1:], lda, v, 1, 0, w.Data[i*ldw:], 1)
			blas.Dgemv(blas.NoTrans, m, i, -1, w.Data[i+1:], ldw, w.Data[i*ldw:], 1, 1, w.Data[i*ldw+i+1:], 1)
			blas.Dscal(m, tau[gi], w.Data[i*ldw+i+1:], 1)
			alpha := -0.5 * tau[gi] * blas.Ddot(m, w.Data[i*ldw+i+1:], 1, v, 1)
			blas.Daxpy(m, alpha, v, 1, w.Data[i*ldw+i+1:], 1)
		})
	}
}
