package ft

import (
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
	n int
	// host is the packed host matrix whose Householder storage is
	// protected.
	host   *matrix.Matrix
	rowChk []float64 // Qr_chk: per-row sums over all absorbed panels
	colChk []float64 // Qc_chk: per-column sums, one segment per panel
	// lastPanel and lastRowContrib allow a panel's contribution to be
	// re-absorbed after a recovery re-executes it with corrected data.
	lastPanel      int
	lastRowContrib []float64
	absorbedCols   int // first column not yet covered
	// limit bounds the verified columns; freshRow and freshCol hold the
	// last residuals call's fresh sums.
	limit              int
	freshRow, freshCol []float64
}

// newQChecksums returns the Q protection state for the packed host
// matrix host. A cost-only run holds no Householder values to protect,
// so its checksum vectors stay nil (only their modeled cost is charged).
func newQChecksums(mode gpu.Mode, host *matrix.Matrix) *qChecksums {
	n := host.Rows
	q := &qChecksums{n: n, host: host, lastPanel: -1}
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
func (q *qChecksums) absorbPanel(h hybrid.HostLane, pp sim.Params, p, ib int) {
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
			for i, v := range q.host.Col(c)[lo:n] {
				s += v
				rowChk[i] += v
				contrib[i] += v
			}
			q.colChk[c] = s
		}
	})
	q.absorbedCols = p + ib
}

// The Q store is a region of the shared recovery path (repair.go) over
// columns 0..limit-1. Its sums stay on the host; the check runs once, at
// the end of the factorization, as the paper prescribes — an error in Q
// never propagates, so per-iteration checks are unnecessary.

// residuals recomputes the fresh sums over the protected region on the
// host lane; a cost-only run holds no Householder values to compare.
func (q *qChecksums) residuals(s *recovery, _ int) (rRes, cRes []float64) {
	n, limit := q.n, q.limit
	s.lane.HostOp(s.pp.GemvHost(n, max(limit, 1)), func() {
		q.freshRow = make([]float64, n)
		q.freshCol = make([]float64, n)
		for c := 0; c < limit; c++ {
			lo := min(c+2, n)
			fresh := q.freshRow[lo:n]
			sum := 0.0
			for i, v := range q.host.Col(c)[lo:n] {
				fresh[i] += v
				sum += v
			}
			q.freshCol[c] = sum
		}
		rRes = make([]float64, n)
		cRes = make([]float64, limit)
		for i := range rRes {
			rRes[i] = q.freshRow[i] - q.rowChk[i]
		}
		for c := range cRes {
			cRes[c] = q.freshCol[c] - q.colChk[c]
		}
	})
	return rRes, cRes
}

func (q *qChecksums) locate(rRes, cRes []float64, tol float64) (location, error) {
	return locate(rRes, cRes, tol)
}

// located journals the pass as one check of Q.
func (q *qChecksums) located(s *recovery, iter int, loc location) {
	ev := obs.Ev(obs.KindChecksumCheck, iter)
	ev.Target = obs.TargetQ
	ev.Outcome = "clean"
	if len(loc.rows) > 0 || len(loc.cols) > 0 {
		ev.Outcome = "mismatch"
	}
	s.emit(ev)
}

func (q *qChecksums) fix(s *recovery, iter int, f repair) {
	switch f.kind {
	case repairChkRow:
		// The checksum vectors themselves took the hit; refresh them.
		q.colChk[f.col] = q.freshCol[f.col]
	case repairChkCol:
		q.rowChk[f.row] = q.freshRow[f.row]
	default:
		q.host.Add(f.row, f.col, -f.delta)
		ev := obs.Ev(obs.KindCorrection, iter)
		ev.Target = obs.TargetQ
		ev.Row, ev.Col, ev.Value = f.row, f.col, obs.Float(f.delta)
		s.emit(ev)
	}
}
