package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/leakcheck"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sim"
)

// gateHook is an ft.Hook that parks the reduction at one iteration
// boundary until the gate closes or the job's context is cancelled —
// the deterministic way to hold a capacity slot occupied (or to prove a
// cancel lands mid-reduction) without sleeping.
type gateHook struct {
	ctx  context.Context
	gate <-chan struct{}
	at   int
}

func (h *gateHook) BeforeIteration(ic *ft.IterCtx) {
	if ic.Iter != h.at {
		return
	}
	select {
	case <-h.gate:
	case <-h.ctx.Done():
	}
}

func (h *gateHook) ConsumePendingH() int { return 0 }

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		sd, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(sd); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
	})
	return s, ts
}

func doReq(t *testing.T, ts *httptest.Server, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func submit(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, b := doReq(t, ts, http.MethodPost, "/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit response %+v", st)
	}
	return st.ID
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, b := doReq(t, ts, http.MethodGet, "/v1/jobs/"+id, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %d %s", id, resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("status %s: %v", id, err)
	}
	return st
}

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

func waitState(t *testing.T, ts *httptest.Server, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if terminal(st.State) {
			t.Fatalf("job %s reached %q (err=%q) while waiting for %q", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for job %s to reach %q (at %q)", id, want, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getResult(t *testing.T, ts *httptest.Server, id string) *JobResult {
	t.Helper()
	resp, b := doReq(t, ts, http.MethodGet, "/v1/jobs/"+id+"/result", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: %d %s", id, resp.StatusCode, b)
	}
	var res JobResult
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("result %s: %v", id, err)
	}
	return &res
}

// directResult runs the same reduction the server would, bypassing HTTP,
// and returns the residual pair the result endpoint reports.
func directResult(t *testing.T, req JobRequest) (residual, orthogonality float64) {
	t.Helper()
	a, err := req.Matrix(4096)
	if err != nil {
		t.Fatalf("direct matrix: %v", err)
	}
	opt := core.Options{NB: req.NB, Device: gpu.New(sim.K40c(), gpu.Real)}
	switch req.algorithm() {
	case AlgBaseline:
		opt.Algorithm = core.Baseline
	case AlgCPU:
		opt.Algorithm = core.CPUOnly
		opt.Device = nil
	}
	res, err := core.Reduce(a, opt)
	if err != nil {
		t.Fatalf("direct reduce: %v", err)
	}
	return res.Checks(a)
}

// TestSubmitPollResult drives the happy path end to end and checks the
// served residuals are bit-for-bit those of a direct core.Reduce run.
func TestSubmitPollResult(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Capacity: 1})

	req := JobRequest{N: 48, NB: 8, Seed: 7}
	id := submit(t, ts, `{"n":48,"nb":8,"seed":7}`)
	waitState(t, ts, id, StateDone)
	got := getResult(t, ts, id)
	if got.Algorithm != AlgFT || got.N != 48 || got.NB != 8 {
		t.Fatalf("result header %+v", got)
	}
	wantRes, wantOrth := directResult(t, req)
	if math.Float64bits(float64(got.Residual)) != math.Float64bits(wantRes) {
		t.Fatalf("served residual %v != direct %v", float64(got.Residual), wantRes)
	}
	if math.Float64bits(float64(got.Orthogonality)) != math.Float64bits(wantOrth) {
		t.Fatalf("served orthogonality %v != direct %v", float64(got.Orthogonality), wantOrth)
	}
	if wantRes > 1e-13 || wantOrth > 1e-13 {
		t.Fatalf("reduction quality: residual %v orthogonality %v", wantRes, wantOrth)
	}
}

// TestBackpressureAndCancel is the scheduler contract test: 4× capacity
// jobs against a capacity-2 server — inflight never exceeds 2, the queue
// absorbs exactly QueueDepth jobs, everything beyond gets 429, a DELETE
// lands mid-reduction and the freed slot is reused, and completed results
// are bit-identical to direct runs despite the concurrency.
func TestBackpressureAndCancel(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{Capacity: 2, QueueDepth: 2})

	// The gate parks every job at iteration 1. Closing it through a
	// cleanup lets a failing test's jobs finish before the server shuts
	// down, instead of timing out the shutdown.
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(openGate)
	var inflight, maxInflight atomic.Int32
	s.testBeforeRun = func(*Job) {
		c := inflight.Add(1)
		for {
			m := maxInflight.Load()
			if c <= m || maxInflight.CompareAndSwap(m, c) {
				break
			}
		}
	}
	s.testAfterRun = func(*Job) { inflight.Add(-1) }
	s.testMutateOptions = func(j *Job, opt *core.Options) {
		opt.Hook = &gateHook{ctx: j.ctx, gate: gate, at: 1}
	}

	// 2 running (parked at iteration 1) + 2 queued. The queue holds
	// two, so the last two go in only once the workers have taken the
	// first two off it.
	ids := make([]string, 4)
	for i := range ids {
		ids[i] = submit(t, ts, fmt.Sprintf(`{"n":48,"nb":8,"seed":%d}`, i+1))
		if i == 1 {
			waitState(t, ts, ids[0], StateRunning)
			waitState(t, ts, ids[1], StateRunning)
		}
	}

	// 4 more: the queue is full, every one must bounce with Retry-After.
	for i := 0; i < 4; i++ {
		resp, b := doReq(t, ts, http.MethodPost, "/v1/jobs", fmt.Sprintf(`{"n":48,"nb":8,"seed":%d}`, 100+i))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overflow submit %d: status %d, body %s", i, resp.StatusCode, b)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("429 without Retry-After")
		}
	}

	// Cancel one of the running jobs mid-reduction: the hook wakes on
	// ctx.Done, the loop notices within one iteration, the slot frees.
	if resp, b := doReq(t, ts, http.MethodDelete, "/v1/jobs/"+ids[0], ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d, body %s", resp.StatusCode, b)
	}
	waitState(t, ts, ids[0], StateCancelled)
	waitState(t, ts, ids[2], StateRunning) // reclaimed slot

	openGate()
	for _, id := range ids[1:] {
		waitState(t, ts, id, StateDone)
	}

	// Cancelled job's result is gone; finished ones are bit-identical to
	// direct runs of the same request.
	if resp, _ := doReq(t, ts, http.MethodGet, "/v1/jobs/"+ids[0]+"/result", ""); resp.StatusCode != http.StatusGone {
		t.Fatalf("cancelled result: status %d", resp.StatusCode)
	}
	for i, id := range ids[1:] {
		got := getResult(t, ts, id)
		wantRes, wantOrth := directResult(t, JobRequest{N: 48, NB: 8, Seed: uint64(i + 2)})
		if math.Float64bits(float64(got.Residual)) != math.Float64bits(wantRes) ||
			math.Float64bits(float64(got.Orthogonality)) != math.Float64bits(wantOrth) {
			t.Fatalf("job %s: served (%v,%v) != direct (%v,%v)", id,
				float64(got.Residual), float64(got.Orthogonality), wantRes, wantOrth)
		}
	}

	if m := maxInflight.Load(); m > 2 {
		t.Fatalf("inflight reached %d on a capacity-2 server", m)
	}

	// The metrics endpoint accounts for every outcome.
	resp, b := doReq(t, ts, http.MethodGet, "/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		`serve_jobs_total{status="accepted"} 4`,
		`serve_jobs_total{status="rejected_full"} 4`,
		`serve_jobs_total{status="cancelled"} 1`,
		`serve_jobs_total{status="done"} 3`,
		"serve_inflight 0",
		"serve_queue_depth 0",
		"serve_job_seconds_count 4",
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("metrics missing %q:\n%s", want, b)
		}
	}
}

// TestCancelQueuedJob frees a queued (never started) job immediately.
func TestCancelQueuedJob(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{Capacity: 1, QueueDepth: 2})
	gate := make(chan struct{})
	s.testMutateOptions = func(j *Job, opt *core.Options) {
		opt.Hook = &gateHook{ctx: j.ctx, gate: gate, at: 1}
	}
	running := submit(t, ts, `{"n":48,"nb":8,"seed":1}`)
	queued := submit(t, ts, `{"n":48,"nb":8,"seed":2}`)
	waitState(t, ts, running, StateRunning)

	if resp, _ := doReq(t, ts, http.MethodDelete, "/v1/jobs/"+queued, ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued: %d", resp.StatusCode)
	}
	if st := getStatus(t, ts, queued); st.State != StateCancelled {
		t.Fatalf("queued job state %q after cancel", st.State)
	}
	close(gate)
	waitState(t, ts, running, StateDone)
}

// TestGracefulShutdownDrains proves Shutdown lets in-flight jobs finish,
// cancels the queue, and rejects new submissions while draining.
func TestGracefulShutdownDrains(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{Capacity: 1, QueueDepth: 4})
	gate := make(chan struct{})
	s.testMutateOptions = func(j *Job, opt *core.Options) {
		opt.Hook = &gateHook{ctx: j.ctx, gate: gate, at: 1}
	}
	inflight := submit(t, ts, `{"n":48,"nb":8,"seed":1}`)
	queued := submit(t, ts, `{"n":48,"nb":8,"seed":2}`)
	waitState(t, ts, inflight, StateRunning)

	done := make(chan error, 1)
	go func() {
		sd, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- s.Shutdown(sd)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	if resp, _ := doReq(t, ts, http.MethodGet, "/readyz", ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, ts, http.MethodGet, "/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, ts, http.MethodPost, "/v1/jobs", `{"n":16}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d", resp.StatusCode)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if st := getStatus(t, ts, inflight); st.State != StateDone {
		t.Fatalf("in-flight job drained to %q", st.State)
	}
	if st := getStatus(t, ts, queued); st.State != StateCancelled {
		t.Fatalf("queued job at shutdown: %q", st.State)
	}
}

// TestShutdownDeadlineCancelsInflight: when the drain deadline passes,
// in-flight jobs are cancelled (they unwind within one iteration) and the
// workers still exit — no goroutine survives.
func TestShutdownDeadlineCancelsInflight(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{Capacity: 1})
	never := make(chan struct{})
	s.testMutateOptions = func(j *Job, opt *core.Options) {
		opt.Hook = &gateHook{ctx: j.ctx, gate: never, at: 1}
	}
	id := submit(t, ts, `{"n":48,"nb":8,"seed":1}`)
	waitState(t, ts, id, StateRunning)

	sd, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(sd); err != context.DeadlineExceeded {
		t.Fatalf("deadline shutdown returned %v", err)
	}
	if st := getStatus(t, ts, id); st.State != StateCancelled {
		t.Fatalf("in-flight job after deadline shutdown: %q", st.State)
	}
}

// TestFaultInjectionJob drives the paper's resilience path over HTTP.
func TestFaultInjectionJob(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Capacity: 1})
	id := submit(t, ts, `{"n":64,"nb":8,"seed":3,"faults":[{"area":2,"iter":1,"seed":9}]}`)
	waitState(t, ts, id, StateDone)
	res := getResult(t, ts, id)
	if res.Detections < 1 || res.Recoveries < 1 {
		t.Fatalf("injected fault not recovered: %+v", res)
	}
	if r := float64(res.Residual); !(r < 1e-10) {
		t.Fatalf("post-recovery residual %v", r)
	}
}

// TestCostOnlyResultNonFinite: a cost-only job has no numerics; its NaN
// residuals must survive JSON (the obs.Float encoding), not 500.
func TestCostOnlyResultNonFinite(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Capacity: 1})
	id := submit(t, ts, `{"n":128,"nb":16,"cost_only":true}`)
	waitState(t, ts, id, StateDone)

	resp, b := doReq(t, ts, http.MethodGet, "/v1/jobs/"+id+"/result", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), `"residual": "NaN"`) {
		t.Fatalf("cost-only residual not encoded as NaN string:\n%s", b)
	}
	var res JobResult
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !math.IsNaN(float64(res.Residual)) || !math.IsNaN(float64(res.Orthogonality)) {
		t.Fatalf("non-finite residuals lost in transit: %+v", res)
	}
	if res.SimSeconds <= 0 || res.ModelGFLOPS <= 0 {
		t.Fatalf("cost-only job lost its performance model: %+v", res)
	}
}

// TestSymmetricJob runs the tridiagonalization path over HTTP.
func TestSymmetricJob(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Capacity: 1})
	id := submit(t, ts, `{"n":48,"nb":8,"seed":5,"symmetric":true}`)
	waitState(t, ts, id, StateDone)
	res := getResult(t, ts, id)
	if !res.Symmetric {
		t.Fatalf("symmetric flag lost: %+v", res)
	}
	if r := float64(res.Residual); !(r < 1e-13) {
		t.Fatalf("tridiagonalization residual %v", r)
	}
}

// TestMatrixMarketUpload submits the input matrix inline.
func TestMatrixMarketUpload(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Capacity: 1})
	a := matrix.Random(12, 12, 11)
	var sb strings.Builder
	if err := matrix.WriteMatrixMarket(&sb, a); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(JobRequest{Algorithm: AlgCPU, MatrixMarket: sb.String()})
	if err != nil {
		t.Fatal(err)
	}
	id := submit(t, ts, string(body))
	waitState(t, ts, id, StateDone)
	res := getResult(t, ts, id)
	if res.N != 12 || res.Algorithm != AlgCPU {
		t.Fatalf("uploaded job result %+v", res)
	}
	if r := float64(res.Residual); !(r < 1e-13) {
		t.Fatalf("uploaded matrix residual %v", r)
	}
}

// TestBadRequests: every malformed body is a 400, never a panic or a
// surprise allocation.
func TestBadRequests(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Capacity: 1, MaxN: 256})
	cases := []string{
		``,
		`{`,
		`not json`,
		`{"n":0}`,
		`{"n":-5}`,
		`{"n":100000}`,
		`{"n":16,"algorithm":"quantum"}`,
		`{"n":16,"nb":-1}`,
		`{"n":16,"nb":100000}`,
		`{"n":16,"unknown_field":1}`,
		`{"n":16}{"n":17}`,
		`{"n":16,"threshold_factor":-1}`,
		`{"n":16,"faults":[{"area":9,"iter":0}]}`,
		`{"n":16,"faults":[{"area":2,"iter":-1}]}`,
		`{"n":16,"faults":[{"area":2,"iter":0,"bit":99}]}`,
		`{"n":16,"symmetric":true,"faults":[{"area":2,"iter":0}]}`,
		`{"n":16,"algorithm":"cpu","faults":[{"area":2,"iter":0}]}`,
		`{"matrix_market":"%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n"}`,
		`{"matrix_market":"%%MatrixMarket matrix array real general\n999999 999999\n"}`,
		`{"n":5,"matrix_market":"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"}`,
	}
	for _, body := range cases {
		resp, b := doReq(t, ts, http.MethodPost, "/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
	if resp, _ := doReq(t, ts, http.MethodGet, "/v1/jobs/nope", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, ts, http.MethodDelete, "/v1/jobs/nope", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job cancel: %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, ts, http.MethodGet, "/v1/jobs/nope/result", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job result: %d", resp.StatusCode)
	}
}

// TestResultNotReady: the result endpoint answers 409 until completion.
func TestResultNotReady(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{Capacity: 1})
	gate := make(chan struct{})
	s.testMutateOptions = func(j *Job, opt *core.Options) {
		opt.Hook = &gateHook{ctx: j.ctx, gate: gate, at: 1}
	}
	id := submit(t, ts, `{"n":48,"nb":8,"seed":1}`)
	waitState(t, ts, id, StateRunning)
	if resp, _ := doReq(t, ts, http.MethodGet, "/v1/jobs/"+id+"/result", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("result while running: %d", resp.StatusCode)
	}
	close(gate)
	waitState(t, ts, id, StateDone)
	if resp, _ := doReq(t, ts, http.MethodGet, "/v1/jobs/"+id+"/result", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("result when done: %d", resp.StatusCode)
	}
	// DELETE on a finished job forgets it.
	if resp, _ := doReq(t, ts, http.MethodDelete, "/v1/jobs/"+id, ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forget finished: %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, ts, http.MethodGet, "/v1/jobs/"+id, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("forgotten job still visible: %d", resp.StatusCode)
	}
}

func gaugeValue(reg *obs.Registry, name string) float64 {
	for _, p := range reg.Snapshot() {
		if p.Kind == "gauge" && p.Name == name {
			return p.Value
		}
	}
	return 0
}

func waitGauge(t *testing.T, reg *obs.Registry, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for gaugeValue(reg, name) != want {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for gauge %s to reach %v (at %v)", name, want, gaugeValue(reg, name))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDeviceLeasing is the device-farm contract test: two one-device jobs
// hold disjoint devices concurrently, a whole-farm job waits for the farm
// to drain (lease wait, not failure), and every lease comes back.
func TestDeviceLeasing(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{Capacity: 3, Devices: 2})
	gate := make(chan struct{})
	s.testMutateOptions = func(j *Job, opt *core.Options) {
		// Gate only the leasing jobs that asked for one device.
		if j.req.Devices == 1 {
			opt.Hook = &gateHook{ctx: j.ctx, gate: gate, at: 1}
		}
	}

	a := submit(t, ts, `{"n":96,"nb":16,"seed":1,"devices":1}`)
	b := submit(t, ts, `{"n":96,"nb":16,"seed":2,"devices":1}`)
	// Both one-device jobs lease disjoint devices and run concurrently.
	waitGauge(t, s.Registry(), "serve_devices_leased", 2)
	waitState(t, ts, a, StateRunning)
	waitState(t, ts, b, StateRunning)

	// The whole-farm job occupies a capacity slot but blocks on the lease
	// until both devices come back.
	c := submit(t, ts, `{"n":96,"nb":16,"seed":3,"devices":2}`)
	waitState(t, ts, c, StateRunning)
	if g := gaugeValue(s.Registry(), "serve_devices_leased"); g != 2 {
		t.Fatalf("whole-farm job leased early: gauge %v", g)
	}
	if st := getStatus(t, ts, c); terminal(st.State) {
		t.Fatalf("whole-farm job finished while the farm was exhausted: %+v", st)
	}

	close(gate)
	waitState(t, ts, a, StateDone)
	waitState(t, ts, b, StateDone)
	waitState(t, ts, c, StateDone)
	waitGauge(t, s.Registry(), "serve_devices_leased", 0)
	if r := float64(getResult(t, ts, c).Residual); r > 1e-13 {
		t.Fatalf("pooled job residual %v", r)
	}
}

// TestDeviceLeaseCancelReturnsPartialLease: cancelling a job that is
// waiting on the lease returns whatever it had collected, so the farm
// never leaks capacity.
func TestDeviceLeaseCancel(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{Capacity: 2, Devices: 2})
	gate := make(chan struct{})
	s.testMutateOptions = func(j *Job, opt *core.Options) {
		if j.req.Devices == 1 {
			opt.Hook = &gateHook{ctx: j.ctx, gate: gate, at: 1}
		}
	}

	a := submit(t, ts, `{"n":96,"nb":16,"seed":4,"devices":1}`)
	waitGauge(t, s.Registry(), "serve_devices_leased", 1)
	// The whole-farm job grabs the free device, then blocks for the held one.
	b := submit(t, ts, `{"n":96,"nb":16,"seed":5,"devices":2}`)
	waitState(t, ts, b, StateRunning)

	if resp, _ := doReq(t, ts, http.MethodDelete, "/v1/jobs/"+b, ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	waitState(t, ts, b, StateCancelled)

	close(gate)
	waitState(t, ts, a, StateDone)
	waitGauge(t, s.Registry(), "serve_devices_leased", 0)
	// The full farm must be available again: a whole-farm job completes.
	c := submit(t, ts, `{"n":96,"nb":16,"seed":6,"devices":2}`)
	waitState(t, ts, c, StateDone)
}

func TestDeviceRequestRejections(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Capacity: 1, Devices: 2})
	for _, tc := range []struct{ name, body string }{
		{"more than farm", `{"n":32,"devices":3}`},
		{"negative", `{"n":32,"devices":-1}`},
		{"cpu", `{"n":32,"algorithm":"cpu","devices":1}`},
		{"symmetric", `{"n":32,"symmetric":true,"devices":1}`},
	} {
		resp, b := doReq(t, ts, http.MethodPost, "/v1/jobs", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, body %s", tc.name, resp.StatusCode, b)
		}
	}
	// A farm-less server rejects any lease request.
	_, ts2 := newTestServer(t, Config{Capacity: 1})
	resp, b := doReq(t, ts2, http.MethodPost, "/v1/jobs", `{"n":32,"devices":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no farm: status %d, body %s", resp.StatusCode, b)
	}
}

// TestFaultPlanRefusals: a fault spec that cannot strike the job's input
// as stated is a 400 naming why, not an accepted job that spins drawing
// positions (area 1 at iteration 0 offers one row) or ends clean having
// injected nothing. An upload's order is checked once it is parsed.
func TestFaultPlanRefusals(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Capacity: 1, MaxN: 256})
	upload := `"matrix_market":"%%MatrixMarket matrix array real general\n64 64\n` + strings.Repeat(`1\n`, 64*64) + `"`
	for _, tc := range []struct{ name, body, want string }{
		{"area1 count above capacity", `{"algorithm":"ft","n":128,"faults":[{"area":1,"iter":0,"count":2}]}`, "capacity of Area1 at iteration 0: 1 position"},
		{"panel count above capacity", `{"algorithm":"ft","n":128,"nb":8,"faults":[{"area":4,"iter":1,"count":9}]}`, "capacity of Panel at iteration 1: 8 position"},
		{"area3 at iteration 0", `{"algorithm":"ft","n":128,"faults":[{"area":3,"iter":0}]}`, "Area3 holds no position at iteration 0 (capacity 0)"},
		{"area2 past the last iteration", `{"algorithm":"ft","n":128,"faults":[{"area":2,"iter":99}]}`, "iteration 99 never runs"},
		{"upload area1 count above capacity", `{"algorithm":"ft",` + upload + `,"faults":[{"area":1,"iter":0,"count":2}]}`, "capacity of Area1 at iteration 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, b := doReq(t, ts, http.MethodPost, "/v1/jobs", tc.body)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), tc.want) {
				t.Fatalf("status %d (%s), want 400 naming %q", resp.StatusCode, b, tc.want)
			}
		})
	}
}
