package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// The batched-throughput study behind BENCH_throughput.json: the same
// small-N job mix served through the real HTTP stack with whole-device
// leases (DeviceLanes=1) and with fractional leases (DeviceLanes=4: four
// lane clocks share each device's engines, DESIGN.md §15). Small
// reductions leave the K40c's engines mostly idle, so the lanes recover
// modeled throughput (jobs per simulated second of farm makespan; gate
// ≥2×). Wall time on a small host cannot show lane concurrency, so the
// modeled numbers carry that claim. A second study measures the
// digest-keyed result cache: the paired wall latency of a hit against
// recomputing a job (gate: ≥10×).

// ThroughputArm is one lease-granularity arm of one problem size.
type ThroughputArm struct {
	// Lanes is the fractional lease count per device (1 = whole-device).
	Lanes int `json:"lanes"`
	Jobs  int `json:"jobs"`
	Items int `json:"items"`
	// ModeledMakespanSec is the farm's virtual-clock makespan after the
	// whole mix drained (batch_farm_makespan_seconds).
	ModeledMakespanSec float64 `json:"modeled_makespan_seconds"`
	ModeledJobsPerSec  float64 `json:"modeled_jobs_per_sec"`
	ModeledItemsPerSec float64 `json:"modeled_items_per_sec"`
}

// ThroughputSize compares the two arms at one matrix order.
type ThroughputSize struct {
	N          int           `json:"n"`
	NB         int           `json:"nb"`
	Whole      ThroughputArm `json:"whole"`
	Fractional ThroughputArm `json:"fractional"`
	// ModeledSpeedup is fractional over whole modeled jobs/sec.
	ModeledSpeedup float64 `json:"modeled_speedup"`
}

// CacheStudy measures the result cache: the wall latency (started →
// finished) of recomputing a job against serving a bit-identical cached
// result, over paired, alternating-order miss/hit runs.
type CacheStudy struct {
	N           int     `json:"n"`
	NB          int     `json:"nb"`
	Pairs       int     `json:"pairs"`
	MissSeconds Spread  `json:"miss_seconds"`
	HitSeconds  Spread  `json:"hit_seconds"`
	SpeedupX    Spread  `json:"speedup_x"`
	Hits        float64 `json:"hits"`
	Misses      float64 `json:"misses"`
}

// ThroughputArtifact is the committed BENCH_throughput.json.
type ThroughputArtifact struct {
	Provenance      Provenance       `json:"provenance"`
	Devices         int              `json:"devices"`
	FractionalLanes int              `json:"fractional_lanes"`
	Capacity        int              `json:"capacity"`
	ItemsPerJob     int              `json:"items_per_job"`
	Sizes           []ThroughputSize `json:"sizes"`
	Cache           CacheStudy       `json:"cache"`
}

// harness is an in-process job server driven through its HTTP API.
type harness struct {
	s   *serve.Server
	ts  *httptest.Server
	reg *obs.Registry
}

func newHarness(cfg serve.Config) *harness {
	cfg.Registry = obs.NewRegistry()
	s := serve.New(cfg)
	return &harness{s: s, ts: httptest.NewServer(s.Handler()), reg: cfg.Registry}
}

func (h *harness) close() error {
	defer h.ts.Close()
	return h.s.Shutdown(context.Background())
}

// jobOutcome is a finished job's execution window (started → finished,
// queue wait excluded) and its served payload.
type jobOutcome struct {
	duration float64
	cached   bool
	digests  []string
}

// run submits every body, waits for all the jobs, then fetches their
// outcomes in submission order.
func (h *harness) run(bodies ...string) ([]jobOutcome, error) {
	ids := make([]string, len(bodies))
	for i, b := range bodies {
		var st struct {
			ID string `json:"id"`
		}
		if err := h.call(http.MethodPost, "", b, http.StatusAccepted, &st); err != nil {
			return nil, err
		}
		ids[i] = st.ID
	}
	for _, id := range ids {
		j, ok := h.s.Job(id)
		if !ok {
			return nil, fmt.Errorf("job %s disappeared", id)
		}
		<-j.Done()
	}
	outs := make([]jobOutcome, len(ids))
	for i, id := range ids {
		var st struct {
			State             string
			Started, Finished time.Time
		}
		var res serve.JobResult
		if err := h.call(http.MethodGet, "/"+id, "", http.StatusOK, &st); err != nil {
			return nil, err
		}
		if st.State != serve.StateDone {
			return nil, fmt.Errorf("job %s ended %s", id, st.State)
		}
		if err := h.call(http.MethodGet, "/"+id+"/result", "", http.StatusOK, &res); err != nil {
			return nil, err
		}
		// Forget the served job so long studies do not accumulate results.
		if err := h.call(http.MethodDelete, "/"+id, "", http.StatusAccepted, &st); err != nil {
			return nil, err
		}
		o := jobOutcome{duration: st.Finished.Sub(st.Started).Seconds(), cached: res.Cached, digests: []string{res.ResultDigest}}
		if len(res.Items) > 0 {
			o.cached, o.digests = true, nil
			for _, it := range res.Items {
				o.digests = append(o.digests, it.ResultDigest)
				o.cached = o.cached && it.Cached
			}
		}
		outs[i] = o
	}
	return outs, nil
}

// call sends one request to /v1/jobs+path and decodes the JSON reply.
func (h *harness) call(method, path, body string, want int, v any) error {
	req, err := http.NewRequest(method, h.ts.URL+"/v1/jobs"+path, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s /v1/jobs%s returned %d", method, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// throughputArm serves one size's job mix at one lease granularity and
// reads the modeled makespan off the farm's virtual clock.
func throughputArm(n, nb, lanes, devices, jobs, itemsPer, capacity int) (ThroughputArm, []string, error) {
	arm := ThroughputArm{Lanes: lanes, Jobs: jobs, Items: jobs * itemsPer}
	h := newHarness(serve.Config{
		Capacity: capacity, QueueDepth: jobs + 4,
		Devices: devices, DeviceLanes: lanes, Observe: serve.ObserveSLO,
	})
	bodies := make([]string, jobs)
	for j := range bodies {
		items := make([]string, itemsPer)
		for i := range items {
			// Distinct seeds everywhere: nothing coalesces or caches, every
			// item is a real reduction.
			items[i] = fmt.Sprintf(`{"n":%d,"seed":%d}`, n, 1+j*itemsPer+i)
		}
		bodies[j] = fmt.Sprintf(`{"priority":"batch","nb":%d,"batch":[%s]}`, nb, strings.Join(items, ","))
	}
	outs, err := h.run(bodies...)
	if cerr := h.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return arm, nil, err
	}
	var digests []string
	for _, o := range outs {
		digests = append(digests, o.digests...)
	}
	arm.ModeledMakespanSec = h.reg.GaugeValue("batch_farm_makespan_seconds")
	if arm.ModeledMakespanSec > 0 {
		arm.ModeledJobsPerSec = float64(jobs) / arm.ModeledMakespanSec
		arm.ModeledItemsPerSec = float64(arm.Items) / arm.ModeledMakespanSec
	}
	return arm, digests, nil
}

// throughputCache measures the result cache. One job is computed up
// front; then each pair serves it again (a hit) and computes a job with a
// fresh seed (a miss), alternating which goes first. Every hit must serve
// the digest of the first computation.
func throughputCache(n, nb, pairs int) (cs CacheStudy, err error) {
	cs = CacheStudy{N: n, NB: nb, Pairs: pairs}
	h := newHarness(serve.Config{Capacity: 2, QueueDepth: 2, CacheEntries: 2*pairs + 1, Observe: serve.ObserveSLO})
	defer func() {
		if cerr := h.close(); err == nil {
			err = cerr
		}
	}()
	job := func(seed int) (jobOutcome, error) {
		outs, err := h.run(fmt.Sprintf(`{"n":%d,"nb":%d,"seed":%d}`, n, nb, seed))
		if err != nil {
			return jobOutcome{}, err
		}
		return outs[0], nil
	}
	first, err := job(100)
	if err != nil {
		return cs, err
	}
	seed := 100
	hit := func() (float64, error) {
		o, err := job(100)
		if err == nil && (!o.cached || o.digests[0] != first.digests[0]) {
			err = fmt.Errorf("cache study: repeat of seed 100 served cached=%v digest %s, want the cached %s", o.cached, o.digests[0], first.digests[0])
		}
		return o.duration, err
	}
	miss := func() (float64, error) {
		seed++
		o, err := job(seed)
		if err == nil && o.cached {
			err = fmt.Errorf("cache study: fresh seed %d served from cache", seed)
		}
		return o.duration, err
	}
	p, err := paired(pairs, hit, miss)
	if err != nil {
		return cs, err
	}
	cs.HitSeconds, cs.MissSeconds, cs.SpeedupX = p.A, p.B, p.Ratio
	cs.Hits = h.reg.CounterValue("serve_cache_hits_total")
	cs.Misses = h.reg.CounterValue("serve_cache_misses_total")
	return cs, nil
}

// Throughput runs the full study: every size at both lease
// granularities (the whole-device arm is the same code path with
// DeviceLanes=1 — the lane model degenerates to serial per-device
// execution, so nothing but the lease granularity differs), plus the
// cache study. The two arms of each size serve the identical job mix,
// and the digest sets they produce are compared — the fractional
// schedule must not change a single bit.
func Throughput(sizes []int, nb, devices, lanes, jobs, itemsPer, capacity, cachePairs int) (*ThroughputArtifact, error) {
	art := &ThroughputArtifact{
		Devices: devices, FractionalLanes: lanes, Capacity: capacity,
		ItemsPerJob: itemsPer, Provenance: stamp(),
	}
	for _, n := range sizes {
		whole, wd, err := throughputArm(n, nb, 1, devices, jobs, itemsPer, capacity)
		if err != nil {
			return nil, err
		}
		frac, fd, err := throughputArm(n, nb, lanes, devices, jobs, itemsPer, capacity)
		if err != nil {
			return nil, err
		}
		sort.Strings(wd)
		sort.Strings(fd)
		for i := range wd {
			if wd[i] != fd[i] {
				return nil, fmt.Errorf("throughput: n=%d digest drift between lease granularities", n)
			}
		}
		sz := ThroughputSize{N: n, NB: nb, Whole: whole, Fractional: frac}
		if whole.ModeledJobsPerSec > 0 {
			sz.ModeledSpeedup = frac.ModeledJobsPerSec / whole.ModeledJobsPerSec
		}
		art.Sizes = append(art.Sizes, sz)
	}
	var err error
	if art.Cache, err = throughputCache(sizes[len(sizes)-1], nb, cachePairs); err != nil {
		return nil, err
	}
	return art, nil
}

// Report prints the study as a table.
func (art *ThroughputArtifact) Report(w io.Writer) {
	fmt.Fprintf(w, "Batched small-N throughput: whole-device vs %d fractional lanes (%d devices, capacity %d, %d items/job)\n",
		art.FractionalLanes, art.Devices, art.Capacity, art.ItemsPerJob)
	fmt.Fprintf(w, "%6s %6s %6s | %14s %14s | %9s\n",
		"n", "jobs", "items", "whole jobs/s", "frac jobs/s", "speedup")
	for _, sz := range art.Sizes {
		fmt.Fprintf(w, "%6d %6d %6d | %14.2f %14.2f | %8.2fx\n",
			sz.N, sz.Whole.Jobs, sz.Whole.Items,
			sz.Whole.ModeledJobsPerSec, sz.Fractional.ModeledJobsPerSec, sz.ModeledSpeedup)
	}
	fmt.Fprintf(w, "modeled jobs/s over farm makespan; acceptance gate at n=%d: >= 2x\n", art.Sizes[len(art.Sizes)-1].N)
	c := art.Cache
	fmt.Fprintf(w, "result cache (n=%d, median [Q1, Q3] of %d alternating pairs): miss %.6fs  hit %.6fs  %.0fx [%.0f, %.0f]\n",
		c.N, c.Pairs, c.MissSeconds.Median, c.HitSeconds.Median, c.SpeedupX.Median, c.SpeedupX.Q1, c.SpeedupX.Q3)
}

// WallCheck enforces the wall bar: a cache hit serves ≥10× faster than
// recomputing, at the paired median.
func (art *ThroughputArtifact) WallCheck() error {
	if c := art.Cache; c.SpeedupX.Median < 10 {
		return fmt.Errorf("cache hit speedup %.1fx below the 10x bar (miss %.6fs, hit %.6fs)",
			c.SpeedupX.Median, c.MissSeconds.Median, c.HitSeconds.Median)
	}
	return nil
}
