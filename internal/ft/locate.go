package ft

import (
	"fmt"
	"math"
)

// The location step of Algorithm 3 (line 15), shared by every checksum-
// protected region: the single-device reducer's whole matrix, one slab
// of a device pool, and the host-side Householder storage. Each caller
// computes its own fresh sums and applies the repairs to its own memory;
// the decision in between is this pure function of the residuals.

// repairKind says what a located repair rewrites.
type repairKind int

const (
	// repairData subtracts delta from the data element (row, col).
	repairData repairKind = iota
	// repairChkRow rewrites the maintained checksum-row entry col with
	// its fresh column sum: the checksum row itself took the hit.
	repairChkRow
	// repairChkCol rewrites the maintained checksum-column entry row
	// with its fresh row sum: the checksum column itself took the hit.
	repairChkCol
)

// repair is one located fix. delta is the residual that located it (for
// a data repair, the amount the element is off by).
type repair struct {
	kind     repairKind
	row, col int
	delta    float64
}

// location is the outcome of the location step: the flagged row and
// column indices and the repairs, in the order they are applied.
type location struct {
	rows, cols []int
	repairs    []repair
}

// locate flags every row residual rRes[i] (fresh row sum minus the
// maintained checksum-column entry) and column residual cRes[j] (fresh
// column sum minus the maintained checksum-row entry) above tol, and
// resolves the flags into repairs:
//
//   - nothing flagged: threshold-level noise triggered the detection, a
//     transient false positive — no repair;
//   - only columns flagged: the checksum row is stale;
//   - only rows flagged: the checksum column is stale;
//   - one row: every flagged column's residual is its element's delta;
//   - one column: likewise with the row residuals;
//   - otherwise row residuals are matched to column residuals by value.
//     A unique matching exists exactly when the error positions do not
//     form the rectangle pattern the paper excludes; anything else is
//     ErrUncorrectable.
//
// On error the flags are still reported and no repair is returned.
func locate(rRes, cRes []float64, tol float64) (location, error) {
	loc := location{rows: flagged(rRes, tol), cols: flagged(cRes, tol)}
	rows, cols := loc.rows, loc.cols
	fix := func(kind repairKind, i, j int, delta float64) {
		loc.repairs = append(loc.repairs, repair{kind: kind, row: i, col: j, delta: delta})
	}
	switch {
	case len(rows) == 0:
		for _, j := range cols {
			fix(repairChkRow, -1, j, cRes[j])
		}
	case len(cols) == 0:
		for _, i := range rows {
			fix(repairChkCol, i, -1, rRes[i])
		}
	case len(rows) == 1:
		for _, j := range cols {
			fix(repairData, rows[0], j, cRes[j])
		}
	case len(cols) == 1:
		for _, i := range rows {
			fix(repairData, i, cols[0], rRes[i])
		}
	default:
		if len(rows) != len(cols) {
			return location{rows: rows, cols: cols}, fmt.Errorf("%w: %d rows vs %d columns flagged", ErrUncorrectable, len(rows), len(cols))
		}
		usedCol := make([]bool, len(cols))
		for _, i := range rows {
			match := -1
			for cj, j := range cols {
				if usedCol[cj] || math.Abs(rRes[i]-cRes[j]) > tol {
					continue
				}
				if match >= 0 {
					return location{rows: rows, cols: cols}, fmt.Errorf("%w: ambiguous residual match", ErrUncorrectable)
				}
				match = cj
			}
			if match < 0 {
				return location{rows: rows, cols: cols}, fmt.Errorf("%w: unmatched row residual", ErrUncorrectable)
			}
			usedCol[match] = true
			fix(repairData, i, cols[match], rRes[i])
		}
	}
	return loc, nil
}

// flagged returns the indices of the residuals above tol.
func flagged(res []float64, tol float64) []int {
	var idx []int
	for i, v := range res {
		if math.Abs(v) > tol {
			idx = append(idx, i)
		}
	}
	return idx
}
