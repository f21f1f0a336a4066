package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/leakcheck"
	"repro/internal/matrix"
	"repro/internal/sim"
)

// directDigest reduces the same generated input the server would and
// returns its canonical result digest — the bit-identity oracle for the
// served results.
func directDigest(t *testing.T, n, nb int, seed uint64) string {
	t.Helper()
	a := matrix.Random(n, n, seed)
	res, err := core.Reduce(a, core.Options{NB: nb, Device: gpu.New(sim.K40c(), gpu.Real)})
	if err != nil {
		t.Fatalf("direct reduce n=%d: %v", n, err)
	}
	return res.Digest()
}

// TestBatchedJobEndToEnd drives a batched job through the throughput
// engine: items grouped by shape onto fractional lanes, per-item results
// in request order, digests bit-identical to direct core.Reduce runs, and
// a full cache hit on identical resubmission — including a single
// (non-batched) job sharing the same per-item cache entry.
func TestBatchedJobEndToEnd(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{Capacity: 2, Devices: 2, DeviceLanes: 2, CacheEntries: 16})

	body := `{"priority":"batch","nb":8,"batch":[{"n":32,"seed":1},{"n":48,"seed":2},{"n":32,"seed":3}]}`
	id := submit(t, ts, body)
	waitState(t, ts, id, StateDone)
	got := getResult(t, ts, id)

	if len(got.Items) != 3 {
		t.Fatalf("items: got %d, want 3", len(got.Items))
	}
	want := []struct {
		n    int
		seed uint64
	}{{32, 1}, {48, 2}, {32, 3}}
	for i, it := range got.Items {
		if it.Index != i || it.N != want[i].n || it.Seed != want[i].seed || it.NB != 8 {
			t.Fatalf("item %d header %+v", i, it)
		}
		if it.Cached {
			t.Fatalf("item %d: cached on first run", i)
		}
		if it.Lane == "" || it.LaneEnd <= it.LaneStart {
			t.Fatalf("item %d lane window %q [%v,%v]", i, it.Lane, it.LaneStart, it.LaneEnd)
		}
		if d := directDigest(t, it.N, 8, it.Seed); it.ResultDigest != d {
			t.Fatalf("item %d digest %s != direct %s", i, it.ResultDigest, d)
		}
		if float64(it.Residual) > 1e-13 || float64(it.Orthogonality) > 1e-13 {
			t.Fatalf("item %d quality: %v / %v", i, it.Residual, it.Orthogonality)
		}
	}
	// Items of the same shape pack onto one lane, back-to-back.
	if got.Items[0].Lane != got.Items[2].Lane {
		t.Fatalf("same-shape items on different lanes: %q vs %q", got.Items[0].Lane, got.Items[2].Lane)
	}
	if got.Items[2].LaneStart < got.Items[0].LaneEnd {
		t.Fatalf("same-lane items overlap: [%v,%v] then [%v,%v]",
			got.Items[0].LaneStart, got.Items[0].LaneEnd, got.Items[2].LaneStart, got.Items[2].LaneEnd)
	}
	if float64(got.SimSeconds) <= 0 {
		t.Fatalf("batched SimSeconds = %v", got.SimSeconds)
	}

	// The batched job's trace exists and parses, and each of its flow
	// arrows joins one copy to one host op, though every item's device
	// numbers its ops from 1.
	resp, b := doReq(t, ts, http.MethodGet, "/v1/jobs/"+id+"/trace", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d, body %s", resp.StatusCode, b)
	}
	var events []gpu.ChromeEvent
	if err := json.Unmarshal(b, &events); err != nil || len(events) == 0 {
		t.Fatalf("trace body: err=%v events=%d", err, len(events))
	}
	flows := map[int][2]int{} // flow id → starts, finishes
	for _, e := range events {
		f := flows[e.ID]
		switch e.Ph {
		case "s":
			f[0]++
		case "f":
			f[1]++
		default:
			continue
		}
		flows[e.ID] = f
	}
	for fid, f := range flows {
		if f != [2]int{1, 1} {
			t.Fatalf("flow %d has %d start(s) and %d finish(es), want one each", fid, f[0], f[1])
		}
	}
	if len(flows) == 0 {
		t.Fatal("batched trace has no flow arrows")
	}

	// Identical resubmission: every item served from the cache, digests
	// unchanged, no device time consumed.
	id2 := submit(t, ts, body)
	waitState(t, ts, id2, StateDone)
	got2 := getResult(t, ts, id2)
	for i, it := range got2.Items {
		if !it.Cached {
			t.Fatalf("resubmitted item %d not cached", i)
		}
		if it.Lane != "" || it.LaneEnd != 0 {
			t.Fatalf("cached item %d charged a lane: %+v", i, it)
		}
		if it.ResultDigest != got.Items[i].ResultDigest {
			t.Fatalf("cached item %d digest drifted", i)
		}
	}
	if hits := s.reg.CounterValue("serve_cache_hits_total"); hits < 3 {
		t.Fatalf("serve_cache_hits_total = %v, want >= 3", hits)
	}

	// A single job over the same input shares the per-item entry.
	id3 := submit(t, ts, `{"n":32,"nb":8,"seed":1}`)
	waitState(t, ts, id3, StateDone)
	got3 := getResult(t, ts, id3)
	if !got3.Cached {
		t.Fatalf("single job over a cached batch item did not hit: %+v", got3)
	}
	if got3.ResultDigest != got.Items[0].ResultDigest {
		t.Fatalf("single-job digest %s != batch item digest %s", got3.ResultDigest, got.Items[0].ResultDigest)
	}

	// The farm's virtual clock advanced and the engine counted the work.
	if ms := s.reg.GaugeValue("batch_farm_makespan_seconds"); ms <= 0 {
		t.Fatalf("batch_farm_makespan_seconds = %v", ms)
	}
	if items := s.reg.CounterValue("batch_items_total"); items < 3 {
		t.Fatalf("batch_items_total = %v", items)
	}
}

// TestBatchRequestValidation covers the 400 surface of the new request
// fields: bad priority, malformed batch shapes, and a batched request
// against a server whose throughput engine is disabled.
func TestBatchRequestValidation(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Capacity: 1}) // no DeviceLanes: engine off

	bad := []string{
		`{"n":32,"priority":"urgent"}`,
		`{"n":32,"batch":[{"n":16}]}`,
		`{"batch":[]}`,                                        // empty batch array, no n
		`{"batch":[{"n":0}]}`,                                 // item order out of range
		`{"batch":[{"n":16}],"symmetric":true}`,               // no symmetric batches
		`{"batch":[{"n":16}],"devices":2}`,                    // whole-device lease conflicts
		`{"batch":[{"n":16}],"algorithm":"cpu"}`,              // host path has no lanes
		`{"batch":[{"n":16}],"fail_stop":true}`,               // retired field
		`{"batch":[{"n":16}],"faults":[{"area":1,"iter":0}]}`, // no injection batches
		`{"batch":[{"n":16}],"matrix_market":"%%MatrixMarket matrix array real general\n1 1\n1\n"}`,
	}
	for _, body := range bad {
		resp, b := doReq(t, ts, http.MethodPost, "/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d (%s), want 400", body, resp.StatusCode, b)
		}
	}

	// A well-formed batched request on an engine-less server is a typed
	// client error, not a 500.
	resp, b := doReq(t, ts, http.MethodPost, "/v1/jobs", `{"batch":[{"n":16}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("engine-less batch: status %d (%s), want 400", resp.StatusCode, b)
	}
	var eb errorBody
	if err := json.Unmarshal(b, &eb); err != nil || eb.Code != "bad_batch_request" {
		t.Fatalf("engine-less batch body %s (err=%v), want code bad_batch_request", b, err)
	}
}

// TestCacheForgetAndLeaderCancel is the satellite-f regression: a
// coalesced follower must survive its leader's mid-flight cancellation
// (recompute locally, correct bits, no convoy), and forgetting a finished
// job must never evict the cache entry an identical future job reads.
func TestCacheForgetAndLeaderCancel(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{Capacity: 2, CacheEntries: 8})

	gate := make(chan struct{})
	defer close(gate)
	s.testMutateOptions = func(j *Job, opt *core.Options) {
		if j.ID == "j1" {
			// Park only the leader mid-reduction; the follower (identical
			// request) coalesces onto its flight and waits.
			opt.Hook = &gateHook{ctx: j.ctx, gate: gate, at: 1}
		}
	}

	const body = `{"n":64,"nb":8,"seed":11}`
	lead := submit(t, ts, body)
	waitState(t, ts, lead, StateRunning)
	// The flight is acquired after the job turns Running; wait for the
	// miss counter so the gated job is provably the leader before the
	// follower arrives.
	missDeadline := time.Now().Add(30 * time.Second)
	for s.reg.CounterValue("serve_cache_misses_total") < 1 {
		if time.Now().After(missDeadline) {
			t.Fatalf("leader never opened a flight")
		}
		time.Sleep(2 * time.Millisecond)
	}

	follow := submit(t, ts, body)
	waitState(t, ts, follow, StateRunning)
	// The follower must be parked on the leader's flight, not computing.
	deadline := time.Now().Add(30 * time.Second)
	for s.reg.CounterValue("serve_cache_coalesced_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never coalesced")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Cancel the leader mid-flight: its flight aborts, the follower wakes
	// with ok=false and recomputes locally.
	if resp, b := doReq(t, ts, http.MethodDelete, "/v1/jobs/"+lead, ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel leader: status %d, body %s", resp.StatusCode, b)
	}
	waitState(t, ts, lead, StateCancelled)
	waitState(t, ts, follow, StateDone)

	res := getResult(t, ts, follow)
	if res.Cached {
		t.Fatalf("follower after aborted flight reported cached")
	}
	wantDigest := directDigest(t, 64, 8, 11)
	if res.ResultDigest != wantDigest {
		t.Fatalf("follower digest %s != direct %s", res.ResultDigest, wantDigest)
	}

	// A post-abort follower holds no flight, so nothing was committed; the
	// next identical job leads, computes, and populates the cache.
	third := submit(t, ts, body)
	waitState(t, ts, third, StateDone)
	if r := getResult(t, ts, third); r.Cached || r.ResultDigest != wantDigest {
		t.Fatalf("third run: cached=%v digest=%s", r.Cached, r.ResultDigest)
	}

	fourth := submit(t, ts, body)
	waitState(t, ts, fourth, StateDone)
	if r := getResult(t, ts, fourth); !r.Cached || r.ResultDigest != wantDigest {
		t.Fatalf("fourth run not served from cache: cached=%v digest=%s", r.Cached, r.ResultDigest)
	}

	// Forget (DELETE) the finished jobs — the cache entry must survive:
	// entries belong to the cache, not to any job's lifecycle.
	for _, id := range []string{third, fourth} {
		if resp, b := doReq(t, ts, http.MethodDelete, "/v1/jobs/"+id, ""); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("forget %s: status %d, body %s", id, resp.StatusCode, b)
		}
	}
	fifth := submit(t, ts, body)
	waitState(t, ts, fifth, StateDone)
	if r := getResult(t, ts, fifth); !r.Cached || r.ResultDigest != wantDigest {
		t.Fatalf("after forgetting served jobs, resubmission missed: cached=%v digest=%s", r.Cached, r.ResultDigest)
	}
	if s.cache.Len() != 1 {
		t.Fatalf("cache entries = %d, want 1", s.cache.Len())
	}
}

// TestCacheNeverServesFaultedRuns: an injected (recovered) run and its
// fault-free twin must not share bits through the cache — the faulted
// run is excluded from caching outright.
func TestCacheNeverServesFaultedRuns(t *testing.T) {
	leakcheck.Check(t)
	s, ts := newTestServer(t, Config{Capacity: 1, CacheEntries: 8})

	// The faulted run first: if it leaked into the cache, the fault-free
	// twin would hit it.
	faulted := submit(t, ts, `{"n":64,"nb":8,"seed":5,"faults":[{"area":1,"iter":1}]}`)
	waitState(t, ts, faulted, StateDone)
	if r := getResult(t, ts, faulted); r.Cached || r.Detections == 0 {
		t.Fatalf("faulted run: cached=%v detections=%d", r.Cached, r.Detections)
	}
	if s.cache.Len() != 0 {
		t.Fatalf("faulted run entered the cache (%d entries)", s.cache.Len())
	}

	clean := submit(t, ts, `{"n":64,"nb":8,"seed":5}`)
	waitState(t, ts, clean, StateDone)
	if r := getResult(t, ts, clean); r.Cached {
		t.Fatalf("fault-free twin hit a cache no clean run populated")
	}
	if s.cache.Len() != 1 {
		t.Fatalf("clean run did not enter the cache (%d entries)", s.cache.Len())
	}
}

// startedAt parses a job's start timestamp (pop order on a capacity-1
// server).
func startedAt(t *testing.T, st JobStatus) time.Time {
	t.Helper()
	ts, err := time.Parse(time.RFC3339Nano, st.Started)
	if err != nil {
		t.Fatalf("job %s started %q: %v", st.ID, st.Started, err)
	}
	return ts
}

// TestFairQueuePriority saturates a capacity-1 server with batch-class
// jobs, then submits interactive jobs behind them: weighted-fair
// scheduling must let the interactive class overtake the batch backlog
// (lower average queue wait), while the batch class still drains.
func TestFairQueuePriority(t *testing.T) {
	leakcheck.Check(t)
	// Aging effectively off: this test pins the pure WFQ order.
	s, ts := newTestServer(t, Config{Capacity: 1, QueueDepth: 16, AgingAfter: time.Hour})

	gate := make(chan struct{})
	s.testMutateOptions = func(j *Job, opt *core.Options) {
		if j.ID == "j1" {
			opt.Hook = &gateHook{ctx: j.ctx, gate: gate, at: 1}
		}
	}

	blocker := submit(t, ts, `{"n":48,"nb":8,"seed":1}`)
	waitState(t, ts, blocker, StateRunning)

	// Batch backlog first, then the interactive arrivals that must
	// overtake it.
	var batchIDs, interIDs []string
	for i := 0; i < 4; i++ {
		batchIDs = append(batchIDs, submit(t, ts, fmt.Sprintf(`{"n":32,"nb":8,"seed":%d,"priority":"batch"}`, 10+i)))
	}
	for i := 0; i < 4; i++ {
		interIDs = append(interIDs, submit(t, ts, fmt.Sprintf(`{"n":32,"nb":8,"seed":%d,"priority":"interactive"}`, 20+i)))
	}
	close(gate)
	for _, id := range append(append([]string{blocker}, batchIDs...), interIDs...) {
		waitState(t, ts, id, StateDone)
	}

	var batchWait, interWait float64
	var lastInter time.Time
	for _, id := range interIDs {
		st := getStatus(t, ts, id)
		interWait += st.QueueWaitSeconds
		if at := startedAt(t, st); at.After(lastInter) {
			lastInter = at
		}
	}
	overtaken := 0
	for _, id := range batchIDs {
		st := getStatus(t, ts, id)
		batchWait += st.QueueWaitSeconds
		if startedAt(t, st).After(lastInter) {
			overtaken++
		}
	}
	// WFQ at weights 4:1 with unit costs serves i,i,i,(b|i),b,b,b — at
	// least three of the four batch jobs start after every interactive
	// one, and the class averages reflect it.
	if overtaken < 3 {
		t.Fatalf("only %d/4 batch jobs started after the interactive class drained", overtaken)
	}
	if interWait/4 >= batchWait/4 {
		t.Fatalf("interactive avg queue wait %.4fs did not beat batch %.4fs", interWait/4, batchWait/4)
	}
}

// TestFairQueueAging floods a capacity-1 server with interactive jobs
// ahead of one queued batch job: once the batch head has starved past
// AgingAfter, the aging override must serve it out of weighted order.
func TestFairQueueAging(t *testing.T) {
	leakcheck.Check(t)
	const aging = 30 * time.Millisecond
	s, ts := newTestServer(t, Config{Capacity: 1, QueueDepth: 16, AgingAfter: aging})

	gate := make(chan struct{})
	s.testMutateOptions = func(j *Job, opt *core.Options) {
		if j.ID == "j1" {
			opt.Hook = &gateHook{ctx: j.ctx, gate: gate, at: 1}
		}
	}

	blocker := submit(t, ts, `{"n":48,"nb":8,"seed":1}`)
	waitState(t, ts, blocker, StateRunning)

	batchID := submit(t, ts, `{"n":32,"nb":8,"seed":2,"priority":"batch"}`)
	var interIDs []string
	for i := 0; i < 6; i++ {
		interIDs = append(interIDs, submit(t, ts, fmt.Sprintf(`{"n":32,"nb":8,"seed":%d}`, 30+i)))
	}

	// Let the batch head starve past the aging bound, then release.
	time.Sleep(aging + 100*time.Millisecond)
	close(gate)
	waitState(t, ts, batchID, StateDone)
	for _, id := range interIDs {
		waitState(t, ts, id, StateDone)
	}

	if aged := s.queue.Aged(); aged < 1 {
		t.Fatalf("aging never fired (aged=%d)", aged)
	}
	// The starved batch job was served out of weighted order: under pure
	// WFQ all six interactive jobs (vfinish <= 1.5) would beat it
	// (vfinish 1.0 + tie... weight 1 puts it at the back); aging must
	// start it before the interactive flood fully drains.
	batchStart := startedAt(t, getStatus(t, ts, batchID))
	after := 0
	for _, id := range interIDs {
		if startedAt(t, getStatus(t, ts, id)).After(batchStart) {
			after++
		}
	}
	if after < 2 {
		t.Fatalf("aged batch job started after %d/6 interactive jobs only", 6-after)
	}
}

// TestRetryAfterSeconds pins the pure backoff estimator behind the 429
// Retry-After header.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		depth    int
		p50      float64
		capacity int
		want     int
	}{
		{0, math.NaN(), 2, 1}, // no history, empty queue: floor
		{5, math.NaN(), 2, 1}, // no history yet: floor
		{10, 1.0, 2, 5},       // 10 jobs × 1s over 2 workers
		{3, 0.4, 2, 1},        // 0.6s rounds up to the floor
		{5, 2.0, 4, 3},        // ceil(2.5)
		{1000, 30, 1, 30},     // clamped to the ceiling
		{4, 0.5, 0, 2},        // capacity clamped to 1
		{7, -1, 3, 1},         // negative p50 treated as no history
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.depth, c.p50, c.capacity); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %v, %d) = %d, want %d", c.depth, c.p50, c.capacity, got, c.want)
		}
	}
}

// TestVersionEndpoint: GET /v1/version reports the build, and every job
// status carries the same stamp.
func TestVersionEndpoint(t *testing.T) {
	leakcheck.Check(t)
	_, ts := newTestServer(t, Config{Capacity: 1})

	resp, b := doReq(t, ts, http.MethodGet, "/v1/version", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version: status %d, body %s", resp.StatusCode, b)
	}
	var bi BuildInfo
	if err := json.Unmarshal(b, &bi); err != nil {
		t.Fatalf("version body: %v", err)
	}
	if bi.GoVersion == "" {
		t.Fatalf("version without go_version: %s", b)
	}

	id := submit(t, ts, `{"n":32,"nb":8,"seed":1}`)
	st := waitState(t, ts, id, StateDone)
	if st.Build == nil || st.Build.GoVersion != bi.GoVersion {
		t.Fatalf("job status build %+v != /v1/version %+v", st.Build, bi)
	}
}

// TestCacheHitEqualsMiss pins the cache policy: a hit returns exactly the
// JobResult a miss would, apart from id and cached. Each variant differs
// from its base request in one option, so it must miss the base's entry
// (whose modeled time differs) and then hit its own. A single job over a
// batched item's input and options shares the item's entry.
func TestCacheHitEqualsMiss(t *testing.T) {
	leakcheck.Check(t)
	const base = `{"n":48,"nb":8,"seed":3`
	cfg := Config{Capacity: 1, Devices: 2, DeviceLanes: 1, CacheEntries: 8}
	run := func(ts *httptest.Server, body string) *JobResult {
		t.Helper()
		id := submit(t, ts, body+"}")
		waitState(t, ts, id, StateDone)
		return getResult(t, ts, id)
	}
	same := func(label string, hit, miss *JobResult) {
		t.Helper()
		h, m := *hit, *miss
		h.ID, h.Cached, m.ID, m.Cached = "", false, "", false
		if !hit.Cached || miss.Cached || !reflect.DeepEqual(h, m) {
			t.Fatalf("%s: hit (cached=%v) %+v, miss (cached=%v) %+v", label, hit.Cached, h, miss.Cached, m)
		}
	}
	var baseMiss *JobResult
	for _, c := range [][2]string{
		{base, base + `,"lookahead":false`},
		{base + `,"devices":1`, base + `,"devices":2`},
		{base, base + `,"substrate":"fused"`},
		{base, base + `,"disable_q_protection":true`},
		{base, base + `,"threshold_factor":4`},
	} {
		_, ts := newTestServer(t, cfg)
		if r := run(ts, c[0]); baseMiss == nil {
			baseMiss = r
		}
		miss := run(ts, c[1])
		same(c[1]+"} after "+c[0]+"}", run(ts, c[1]), miss)
	}
	_, ts := newTestServer(t, cfg)
	run(ts, `{"nb":8,"batch":[{"n":48,"seed":3}]`)
	same("single job after a batched item", run(ts, base), baseMiss)
}
