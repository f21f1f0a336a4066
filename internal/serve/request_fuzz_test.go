package serve

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/matrix"
)

// FuzzJobRequest hammers the job-request decoder: whatever the body, the
// only outcomes are a validated request or an error — never a panic, and
// never an accepted request that escapes the server's size limits (the
// properties the 400-only contract of POST /v1/jobs rests on). A request
// the decoder accepts then runs on a server with a device farm and lanes,
// as POST /v1/jobs would submit it, and must reach a terminal state
// within a short deadline: a fault plan that can never strike as stated
// would hold its worker for good. The committed corpus carries such a
// plan, the n=128 hang of fthess -inject area1 -iter 0 -count 2 scaled
// to n=64, which validation now refuses.
func FuzzJobRequest(f *testing.F) {
	seeds := []string{
		`{"n":8}`,
		`{"n":16,"algorithm":"baseline","nb":4,"seed":42}`,
		`{"n":12,"algorithm":"ft","faults":[{"area":2,"iter":1,"count":2,"delta":0.5,"seed":7}]}`,
		`{"n":12,"faults":[{"area":3,"iter":2,"bit_flip":true,"bit":52}]}`,
		`{"n":24,"symmetric":true,"cost_only":false,"threshold_factor":300}`,
		`{"algorithm":"cpu","matrix_market":"%%MatrixMarket matrix array real general\n2 2\n1\n0\n0\n1\n"}`,
		`{"matrix_market":"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.5\n3 3 -2e-3\n"}`,
		`{"n":-3}`,
		`{"n":8,"unknown":true}`,
		`{"n":8}{"n":9}`,
		`{"n":1e9}`,
		`[1,2,3]`,
		`"just a string"`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	const maxN = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeJobRequest(bytes.NewReader(data), maxN)
		if err != nil {
			return
		}
		a, err := req.Matrix(maxN)
		if err != nil {
			return
		}
		if a != nil && (a.Rows != a.Cols || a.Rows < 1 || a.Rows > maxN) {
			t.Fatalf("accepted request materialized a %dx%d matrix (maxN %d): %q",
				a.Rows, a.Cols, maxN, data)
		}
		if req.NB < 0 || req.NB > maxNB {
			t.Fatalf("accepted request with nb=%d: %q", req.NB, data)
		}
		// Submit as handleSubmit does: an upload is parsed and its fault
		// plan checked against its order first.
		var upload *matrix.Matrix
		if req.MatrixMarket != "" {
			if req.checkFaults(a.Rows) != nil {
				return
			}
			upload, req.MatrixMarket = a, ""
		}
		s := New(Config{Capacity: 1, MaxN: maxN, Devices: 4, DeviceLanes: 2})
		if st, err := s.Submit(req, upload); err == nil { // else a farm refusal: more devices than it has
			j, _ := s.Job(st.ID)
			select {
			case <-j.Done():
			case <-time.After(10 * time.Second):
				// No shutdown: it would wait for the stuck worker.
				t.Fatalf("accepted request did not finish within 10s: %q", data)
			}
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}
