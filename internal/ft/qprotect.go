package ft

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// qChecksums protects the Householder vectors accumulating on the host
// (the Q matrix, Section IV-E of the paper). A column of row checksums
// (Qr_chk) is accumulated panel by panel, and a row of column checksums
// (Qc_chk) is generated one segment per panel and never changes — the
// solid/dashed lines of the paper's Figure 5. Generation runs on the CPU
// while the device updates the trailing matrix, so its cost hides in the
// otherwise idle host time.
//
// The protected region is the strictly-below-first-subdiagonal storage of
// the packed factorization (rows ≥ c+2 of column c).
type qChecksums struct {
	n      int
	rowChk []float64 // Qr_chk: per-row sums over all absorbed panels
	colChk []float64 // Qc_chk: per-column sums, one segment per panel
	// lastPanel and lastRowContrib allow a panel's contribution to be
	// re-absorbed after a recovery re-executes it with corrected data.
	lastPanel      int
	lastRowContrib []float64
	absorbedCols   int // first column not yet covered
}

// newQChecksums returns the Q protection state for an order-n run. A
// cost-only run holds no Householder values to protect, so its checksum
// vectors stay nil (only their modeled cost is charged).
func newQChecksums(mode gpu.Mode, n int) *qChecksums {
	q := &qChecksums{n: n, lastPanel: -1}
	if mode == gpu.Real {
		q.rowChk = make([]float64, n)
		q.colChk = make([]float64, n)
		q.lastRowContrib = make([]float64, n)
	}
	return q
}

// absorbPanel folds the Householder vectors of panel columns p..p+ib-1
// into the checksums. Calling it again for the same panel (after a
// recovery re-execution) first retracts the previous contribution.
func (q *qChecksums) absorbPanel(h hybrid.HostLane, pp sim.Params, hostA *matrix.Matrix, p, ib int) {
	n := q.n
	cost := pp.GemvHost(n-p, ib)
	h.HostOp(cost, func() {
		if q.lastPanel == p {
			// Re-absorption after recovery: retract the stale sums.
			for i := 0; i < n; i++ {
				q.rowChk[i] -= q.lastRowContrib[i]
				q.lastRowContrib[i] = 0
			}
		} else {
			q.lastPanel = p
			for i := range q.lastRowContrib {
				q.lastRowContrib[i] = 0
			}
		}
		for c := p; c < p+ib; c++ {
			lo := min(c+2, n)
			rowChk, contrib := q.rowChk[lo:n], q.lastRowContrib[lo:n]
			s := 0.0
			for i, v := range hostA.Col(c)[lo:n] {
				s += v
				rowChk[i] += v
				contrib[i] += v
			}
			q.colChk[c] = s
		}
		q.absorbedCols = p + ib
	})
}

// verifyAndCorrect recomputes fresh checksums over the protected region
// (columns 0..limit-1) and repairs any mismatching element in hostA,
// returning the number of corrections. Ambiguous patterns (rectangles)
// return ErrUncorrectable. Run once at the end of the factorization, as
// the paper prescribes — an error in Q never propagates, so per-iteration
// checks are unnecessary. journal (optional) receives the records for
// the check and each repaired element, tagged with iteration iter.
func (q *qChecksums) verifyAndCorrect(h hybrid.HostLane, pp sim.Params, hostA *matrix.Matrix, limit int, tol float64, journal func(obs.Event), iter int) (int, error) {
	if limit > q.absorbedCols {
		limit = q.absorbedCols
	}
	n := q.n
	fixes := 0
	var vErr error
	h.HostOp(pp.GemvHost(n, max(limit, 1)), func() {
		freshRow := make([]float64, n)
		freshCol := make([]float64, n)
		for c := 0; c < limit; c++ {
			lo := min(c+2, n)
			fresh := freshRow[lo:n]
			s := 0.0
			for i, v := range hostA.Col(c)[lo:n] {
				fresh[i] += v
				s += v
			}
			freshCol[c] = s
		}
		rRes := make([]float64, n)
		cRes := make([]float64, limit)
		for i := range rRes {
			rRes[i] = freshRow[i] - q.rowChk[i]
		}
		for c := range cRes {
			cRes[c] = freshCol[c] - q.colChk[c]
		}
		found, err := locate(rRes, cRes, tol)
		if journal != nil {
			ev := obs.Ev(obs.KindChecksumCheck, iter)
			ev.Target = obs.TargetQ
			ev.Outcome = "clean"
			if len(found.rows) > 0 || len(found.cols) > 0 {
				ev.Outcome = "mismatch"
			}
			journal(ev)
		}
		if err != nil {
			vErr = fmt.Errorf("Q check: %w", err)
			return
		}
		for _, f := range found.repairs {
			switch f.kind {
			case repairChkRow:
				// The checksum vectors themselves took the hit; refresh them.
				q.colChk[f.col] = freshCol[f.col]
			case repairChkCol:
				q.rowChk[f.row] = freshRow[f.row]
			default:
				hostA.Add(f.row, f.col, -f.delta)
				fixes++
				if journal != nil {
					ev := obs.Ev(obs.KindCorrection, iter)
					ev.Target = obs.TargetQ
					ev.Row, ev.Col, ev.Value = f.row, f.col, obs.Float(f.delta)
					journal(ev)
				}
			}
		}
	})
	return fixes, vErr
}
