package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/matrix"
)

// gateSeed marks the lifecycle jobs the test parks at iteration 1.
const gateSeed = 999

// heldInput reports what a job still holds of its input: the matrix and
// the upload text.
func heldInput(s *Server, j *Job) (*matrix.Matrix, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.a, j.req.MatrixMarket
}

// uploadBody is a job request carrying a as an inline Matrix Market
// document.
func uploadBody(t *testing.T, req JobRequest, a *matrix.Matrix) string {
	t.Helper()
	var sb strings.Builder
	if err := matrix.WriteMatrixMarket(&sb, a); err != nil {
		t.Fatal(err)
	}
	req.MatrixMarket = sb.String()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// costOnlySeconds is the modeled time of a direct cost-only run over the
// seeded generator's values; a served cost-only job, which gets only the
// input's shape, must model the same time.
func costOnlySeconds(t *testing.T, n, nb int, seed uint64) float64 {
	t.Helper()
	res, err := core.Reduce(matrix.Random(n, n, seed), core.Options{NB: nb, CostOnly: true})
	if err != nil {
		t.Fatalf("direct cost-only reduce n=%d: %v", n, err)
	}
	return res.SimSeconds
}

// TestJobInputLifecycle drives every kind of job through the handler to
// a terminal state — done, failed, cancelled while queued, cancelled
// while running — and requires that the job then holds no input matrix
// and no upload text, while status, result, trace and DELETE answer as
// they always did.
func TestJobInputLifecycle(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{Capacity: 1, QueueDepth: 4, Devices: 2, DeviceLanes: 2, CacheEntries: 8})
	var gate chan struct{}
	s.testMutateOptions = func(j *Job, opt *core.Options) {
		if j.req.Seed == gateSeed {
			opt.Hook = &gateHook{ctx: j.ctx, gate: gate, at: 1}
		}
	}

	upload := matrix.Random(12, 12, 11)
	parsed := func() *matrix.Matrix {
		// The digest oracle reduces what the server parsed, not the
		// generator's bits.
		var sb strings.Builder
		if err := matrix.WriteMatrixMarket(&sb, upload); err != nil {
			t.Fatal(err)
		}
		a, err := matrix.ReadMatrixMarket(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}()

	cases := []struct {
		name   string
		body   string
		cancel string // "", StateQueued or StateRunning: when DELETE lands
		state  string
		code   int // GET /result
		check  func(t *testing.T, res *JobResult)
	}{
		{name: "seeded", body: `{"n":48,"nb":8,"seed":7}`, state: StateDone, code: http.StatusOK,
			check: func(t *testing.T, res *JobResult) {
				if d := directDigest(t, 48, 8, 7); res.ResultDigest != d || res.Cached {
					t.Fatalf("digest %s (cached %v), want %s", res.ResultDigest, res.Cached, d)
				}
			}},
		{name: "seeded cache hit", body: `{"n":48,"nb":8,"seed":7}`, state: StateDone, code: http.StatusOK,
			check: func(t *testing.T, res *JobResult) {
				if d := directDigest(t, 48, 8, 7); res.ResultDigest != d || !res.Cached {
					t.Fatalf("digest %s (cached %v), want a hit on %s", res.ResultDigest, res.Cached, d)
				}
			}},
		{name: "uploaded", body: uploadBody(t, JobRequest{NB: 4}, upload), state: StateDone, code: http.StatusOK,
			check: func(t *testing.T, res *JobResult) {
				want, err := core.Reduce(parsed, core.Options{NB: 4})
				if err != nil {
					t.Fatal(err)
				}
				if res.N != 12 || res.ResultDigest != want.Digest() {
					t.Fatalf("uploaded result %+v, want digest %s", res, want.Digest())
				}
			}},
		{name: "batched", body: `{"nb":8,"batch":[{"n":32,"seed":1},{"n":48,"seed":2}]}`, state: StateDone, code: http.StatusOK,
			check: func(t *testing.T, res *JobResult) {
				for _, it := range res.Items {
					if d := directDigest(t, it.N, 8, it.Seed); it.ResultDigest != d {
						t.Fatalf("item %d digest %s, want %s", it.Index, it.ResultDigest, d)
					}
				}
			}},
		{name: "symmetric", body: `{"n":48,"nb":8,"seed":5,"symmetric":true}`, state: StateDone, code: http.StatusOK,
			check: func(t *testing.T, res *JobResult) {
				if !res.Symmetric || !(float64(res.Residual) < 1e-13) {
					t.Fatalf("symmetric result %+v", res)
				}
			}},
		{name: "cost-only", body: `{"n":128,"nb":16,"cost_only":true}`, state: StateDone, code: http.StatusOK,
			check: func(t *testing.T, res *JobResult) {
				if want := costOnlySeconds(t, 128, 16, 0); float64(res.SimSeconds) != want ||
					!math.IsNaN(float64(res.Residual)) || res.ResultDigest != "" {
					t.Fatalf("cost-only result %+v, want sim_seconds %v and no numerics", res, want)
				}
			}},
		{name: "cost-only batched", body: `{"nb":16,"cost_only":true,"batch":[{"n":96,"seed":1},{"n":128,"seed":2}]}`,
			state: StateDone, code: http.StatusOK,
			check: func(t *testing.T, res *JobResult) {
				for _, it := range res.Items {
					if want := costOnlySeconds(t, it.N, 16, it.Seed); float64(it.SimSeconds) != want {
						t.Fatalf("item %d sim_seconds %v, want %v", it.Index, it.SimSeconds, want)
					}
				}
			}},
		{name: "cancelled while queued", body: uploadBody(t, JobRequest{NB: 4}, upload), cancel: StateQueued,
			state: StateCancelled, code: http.StatusGone},
		{name: "cancelled while running", body: fmt.Sprintf(`{"n":64,"nb":8,"seed":%d}`, gateSeed), cancel: StateRunning,
			state: StateCancelled, code: http.StatusGone},
		// A single device that dies has no survivors to restart on: the
		// job fails uncorrectable once it runs.
		{name: "failed", body: uploadBody(t, JobRequest{NB: 4, Faults: []FaultSpec{{Iter: 0, KillPoint: "boundary"}}}, upload),
			state: StateFailed, code: http.StatusInternalServerError},
	}
	for _, c := range cases {
		gate = make(chan struct{})
		var id string
		switch c.cancel {
		case StateQueued:
			blocker := submit(t, ts, fmt.Sprintf(`{"n":48,"nb":8,"seed":%d}`, gateSeed))
			waitState(t, ts, blocker, StateRunning)
			id = submit(t, ts, c.body)
			doReq(t, ts, http.MethodDelete, "/v1/jobs/"+id, "")
			close(gate)
			waitState(t, ts, blocker, StateDone)
		case StateRunning:
			id = submit(t, ts, c.body)
			waitState(t, ts, id, StateRunning)
			doReq(t, ts, http.MethodDelete, "/v1/jobs/"+id, "")
		default:
			id = submit(t, ts, c.body)
		}
		st := waitState(t, ts, id, c.state)
		if st.TraceID == "" {
			t.Fatalf("%s: terminal status lost its trace id: %+v", c.name, st)
		}

		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("%s: job %s left the table before DELETE", c.name, id)
		}
		if a, mm := heldInput(s, j); a != nil || mm != "" {
			t.Fatalf("%s: terminal job holds its input (matrix %v, %d bytes of upload)", c.name, a != nil, len(mm))
		}

		resp, b := doReq(t, ts, http.MethodGet, "/v1/jobs/"+id+"/result", "")
		if resp.StatusCode != c.code {
			t.Fatalf("%s: result status %d (%s), want %d", c.name, resp.StatusCode, b, c.code)
		}
		if c.check != nil {
			var res JobResult
			if err := json.Unmarshal(b, &res); err != nil {
				t.Fatalf("%s: result: %v", c.name, err)
			}
			c.check(t, &res)
		}
		resp, b = doReq(t, ts, http.MethodGet, "/v1/jobs/"+id+"/trace", "")
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "job lifecycle") {
			t.Fatalf("%s: trace status %d, body %.200s", c.name, resp.StatusCode, b)
		}
		if st := getStatus(t, ts, id); st.State != c.state {
			t.Fatalf("%s: status drifted to %q", c.name, st.State)
		}
		resp, b = doReq(t, ts, http.MethodDelete, "/v1/jobs/"+id, "")
		if resp.StatusCode != http.StatusAccepted || !strings.Contains(string(b), c.state) {
			t.Fatalf("%s: forget status %d, body %s", c.name, resp.StatusCode, b)
		}
		if resp, _ := doReq(t, ts, http.MethodGet, "/v1/jobs/"+id, ""); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: forgotten job still answers %d", c.name, resp.StatusCode)
		}
	}
}

// TestFinishedJobsRetainNoInput runs 48 generated N=256 jobs (512 KiB of
// input each) to completion and requires the live heap to grow by far
// less than their inputs: a finished job keeps its status and result,
// not its matrix. Observation is SLO-only so per-job traces, which a
// finished job rightly keeps, do not blur the measurement.
func TestFinishedJobsRetainNoInput(t *testing.T) {
	leakcheck.Check(t)
	const jobs, n = 48, 256
	s, ts := newTestServer(t, Config{Capacity: 1, QueueDepth: jobs, Observe: ObserveSLO})
	run := func(seed int) *Job {
		id := submit(t, ts, fmt.Sprintf(`{"n":%d,"seed":%d}`, n, seed))
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s not in the table", id)
		}
		return j
	}
	// Warm up the worker, the BLAS pool and the HTTP connection first.
	<-run(0).Done()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := make([]*Job, jobs)
	for i := range held {
		held[i] = run(i + 1)
	}
	for _, j := range held {
		<-j.Done()
		if j.state != StateDone {
			t.Fatalf("job %s ended %q: %v", j.ID, j.state, j.err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap grew %.2f MiB over %d finished jobs (%d MiB of inputs)",
		float64(growth)/(1<<20), jobs, jobs*n*n*8>>20)
	if growth >= 6<<20 {
		t.Fatalf("heap grew %.2f MiB over %d finished jobs, want < 6 MiB", float64(growth)/(1<<20), jobs)
	}
	runtime.KeepAlive(held)
}

// TestQueuedJobHoldsNoInput parks the only worker and checks that a
// queued generated job holds no matrix, that a 429 allocates none, and
// that the input the worker generates later serves the same digest.
func TestQueuedJobHoldsNoInput(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{Capacity: 1, QueueDepth: 1})
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock) // a failed check must not strand the worker
	s.testBeforeRun = func(*Job) { <-release }

	blocker := submit(t, ts, `{"n":48,"nb":8,"seed":1}`)
	waitState(t, ts, blocker, StateRunning)
	id := submit(t, ts, `{"n":64,"nb":8,"seed":9}`)
	j, _ := s.Job(id)
	if a, _ := heldInput(s, j); a != nil {
		t.Fatalf("queued job holds a %dx%d matrix", a.Rows, a.Cols)
	}

	// The queue is full: an N=2048 request (32 MiB of input) bounces.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resp, b := doReq(t, ts, http.MethodPost, "/v1/jobs", `{"n":2048,"seed":3}`)
	runtime.ReadMemStats(&m1)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, body %s", resp.StatusCode, b)
	}
	if d := m1.TotalAlloc - m0.TotalAlloc; d >= 1<<20 {
		t.Fatalf("a 429 allocated %.2f MiB, want < 1 MiB", float64(d)/(1<<20))
	}

	unblock()
	waitState(t, ts, blocker, StateDone)
	waitState(t, ts, id, StateDone)
	if got, want := getResult(t, ts, id).ResultDigest, directDigest(t, 64, 8, 9); got != want {
		t.Fatalf("served digest %s, want %s", got, want)
	}
}
