package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/ft"
)

// Each reduction family reports its terminal failures through the same
// ft error values, wrapped with context; classify sorts them by errors.Is.
func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
		code   string
	}{
		{nil, http.StatusOK, ""},
		{fmt.Errorf("slab 1: %w: non-finite residual", ft.ErrUncorrectable), http.StatusInternalServerError, "uncorrectable"},
		{fmt.Errorf("%w (iteration 2)", ft.ErrDetectionStorm), http.StatusInternalServerError, "detection_storm"},
		{fmt.Errorf("job: %w", context.Canceled), http.StatusGone, "cancelled"},
		{context.DeadlineExceeded, http.StatusGone, "cancelled"},
		{errors.New("boom"), http.StatusInternalServerError, "internal"},
	} {
		if got := classify(tc.err); got.status != tc.status || got.code != tc.code {
			t.Errorf("classify(%v) = %d %q, want %d %q", tc.err, got.status, got.code, tc.status, tc.code)
		}
	}
}
