package ft

import (
	"errors"
	"reflect"
	"testing"
)

// TestLocate drives the shared location step directly from residual
// vectors: every repair case of Algorithm 3's line 15, and the patterns
// it must refuse.
func TestLocate(t *testing.T) {
	const n, tol = 8, 1e-9
	// residuals builds the row and column residuals of the given data
	// errors (row, col, delta), then adds stale checksum entries.
	type hit struct {
		row, col int
		delta    float64
	}
	residuals := func(hits []hit, staleRow, staleCol map[int]float64) ([]float64, []float64) {
		rRes, cRes := make([]float64, n), make([]float64, n)
		for _, h := range hits {
			rRes[h.row] += h.delta
			cRes[h.col] += h.delta
		}
		for j, d := range staleRow {
			cRes[j] += d
		}
		for i, d := range staleCol {
			rRes[i] += d
		}
		return rRes, cRes
	}
	data := func(i, j int, d float64) repair { return repair{kind: repairData, row: i, col: j, delta: d} }
	for _, tc := range []struct {
		name               string
		hits               []hit
		staleRow, staleCol map[int]float64
		want               []repair
		wantErr            bool
	}{
		{name: "clean"},
		{name: "below threshold", hits: []hit{{2, 3, tol / 2}}},
		{name: "single error", hits: []hit{{2, 5, 3.5}}, want: []repair{data(2, 5, 3.5)}},
		{
			name: "same row", hits: []hit{{4, 1, 2}, {4, 6, -7}},
			want: []repair{data(4, 1, 2), data(4, 6, -7)},
		},
		{
			name: "same column", hits: []hit{{0, 3, 1.25}, {7, 3, 9}},
			want: []repair{data(0, 3, 1.25), data(7, 3, 9)},
		},
		{
			name: "diagonal pair", hits: []hit{{1, 2, 5}, {6, 4, -3}},
			want: []repair{data(1, 2, 5), data(6, 4, -3)},
		},
		{
			name: "stale checksum row", staleRow: map[int]float64{3: 0.5, 6: -2},
			want: []repair{{kind: repairChkRow, row: -1, col: 3, delta: 0.5}, {kind: repairChkRow, row: -1, col: 6, delta: -2}},
		},
		{
			name: "stale checksum column", staleCol: map[int]float64{5: 4},
			want: []repair{{kind: repairChkCol, row: 5, col: -1, delta: 4}},
		},
		{name: "rectangle", hits: []hit{{1, 1, 2}, {1, 3, 3}, {4, 1, 5}, {4, 3, 7}}, wantErr: true},
		{name: "ambiguous match", hits: []hit{{1, 2, 5}, {4, 6, 5}}, wantErr: true},
		{name: "more rows than columns", hits: []hit{{0, 2, 1}, {3, 2, 2}, {5, 7, 4}}, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rRes, cRes := residuals(tc.hits, tc.staleRow, tc.staleCol)
			loc, err := locate(rRes, cRes, tol)
			if tc.wantErr {
				if !errors.Is(err, ErrUncorrectable) {
					t.Fatalf("err = %v, want ErrUncorrectable", err)
				}
				if loc.repairs != nil || len(loc.rows) == 0 || len(loc.cols) == 0 {
					t.Fatalf("refused location must report its flags and no repair: %+v", loc)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(loc.repairs, tc.want) {
				t.Fatalf("repairs %+v, want %+v", loc.repairs, tc.want)
			}
		})
	}
}
