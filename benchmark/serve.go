package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serve-mix: serving traffic. An in-process serve.Server (capacity 2, a
// farm of 2 devices with 4 lanes each, a 512-entry result cache,
// observe=slo) behind loopback HTTP takes a fixed mix: half fresh
// interactive FT jobs at small orders, 30% interactive repeats of an
// earlier job (cache hits and coalescing), 20% batch-priority jobs of
// four reductions each. Phase A is an open loop of Poisson arrivals at
// 50 jobs/s, about 40% of what the server drains, so queueing shows
// without 429s; latency runs from each job's due time to its completion.
// Phase B submits bursts of the same mix back to back to fresh servers
// and measures the drain rate.

const streamServe = 0x5e7e

// phaseAShare is the part of the timed phase spent in phase A; phase B
// gets the rest.
const phaseAShare = 0.5

// serveJob is one request of the mix.
type serveJob struct {
	Due  time.Duration `json:"due_ns"`
	Kind string        `json:"kind"` // fresh, repeat or batch
	N    int           `json:"n,omitempty"`
	Seed uint64        `json:"seed,omitempty"`
	// Orig is the index of the job a repeat repeats (-1 otherwise).
	Orig  int      `json:"orig"`
	Items [][2]int `json:"items,omitempty"` // batch: (n, seed) pairs
	Body  string   `json:"body"`
}

// deck is the mix in every ten consecutive jobs; each deck is shuffled,
// so the proportions are exact and only the order is random.
var deck = []string{"fresh", "fresh", "fresh", "fresh", "fresh", "repeat", "repeat", "repeat", "batch", "batch"}

// serveSchedule builds count requests of the mix from rng, arriving as
// a Poisson process at rate per second, or all due at once when rate is
// 0. Fresh jobs cycle through the sizes and never share a seed.
func serveSchedule(rng *rand.Rand, p params, count int, rate float64) []serveJob {
	nextSeed := rng.Uint64() >> 16
	var jobs []serveJob
	var fresh []int
	var kinds []string
	var due time.Duration
	for len(jobs) < count {
		if rate > 0 {
			due += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		}
		if len(kinds) == 0 {
			kinds = append(kinds, deck...)
			rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		}
		j := serveJob{Due: due, Kind: kinds[0], Orig: -1}
		kinds = kinds[1:]
		if j.Kind == "repeat" && len(fresh) == 0 {
			j.Kind = "fresh"
		}
		switch j.Kind {
		case "fresh":
			j.N, j.Seed = p.serveSizes[len(fresh)%len(p.serveSizes)], nextSeed
			nextSeed++
			fresh = append(fresh, len(jobs))
			j.Body = fmt.Sprintf(`{"n":%d,"seed":%d}`, j.N, j.Seed)
		case "repeat":
			j.Orig = fresh[rng.IntN(len(fresh))]
			j.N, j.Seed = jobs[j.Orig].N, jobs[j.Orig].Seed
			j.Body = jobs[j.Orig].Body
		case "batch":
			var b strings.Builder
			b.WriteString(`{"priority":"batch","batch":[`)
			for i := 0; i < p.serveBatchItems; i++ {
				if i > 0 {
					b.WriteByte(',')
				}
				j.Items = append(j.Items, [2]int{p.serveBatchN, int(nextSeed)})
				fmt.Fprintf(&b, `{"n":%d,"seed":%d}`, p.serveBatchN, nextSeed)
				nextSeed++
			}
			b.WriteString(`]}`)
			j.Body = b.String()
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// baselineJobs is jobs with every request switched to the non-FT
// baseline algorithm.
func baselineJobs(jobs []serveJob) []serveJob {
	out := append([]serveJob(nil), jobs...)
	for i := range out {
		out[i].Body = `{"algorithm":"baseline",` + out[i].Body[1:]
	}
	return out
}

// clock is the open-loop sender's time source (faked in tests).
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ t0 time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.t0) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// openLoop sends job i at dues[i] whether or not earlier jobs finished.
// One goroutine sends, so a slow send delays every job behind it; the
// returned lateness (seconds past due at the moment of sending) shows by
// how much.
func openLoop(c clock, dues []time.Duration, send func(i int)) []float64 {
	late := make([]float64, len(dues))
	for i, d := range dues {
		c.sleepUntil(d)
		late[i] = (c.now() - d).Seconds()
		send(i)
	}
	return late
}

// serveRig is one server under test and the client that loads it.
type serveRig struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	reg    *obs.Registry
}

func newServeRig() *serveRig {
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{
		Capacity: 2, QueueDepth: 64, Devices: 2, DeviceLanes: 4, CacheEntries: 512,
		Registry: reg, Observe: serve.ObserveSLO,
	})
	ts := httptest.NewServer(srv.Handler())
	// At most two keep-alive connections: one sender, plus one for the
	// verification reads.
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	return &serveRig{srv: srv, ts: ts, client: &http.Client{Transport: tr, Timeout: time.Minute}, reg: reg}
}

func (r *serveRig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	r.client.CloseIdleConnections()
	r.ts.Close()
	return err
}

// post submits one job and returns its ID and the HTTP status.
func (r *serveRig) post(body string) (string, int, error) {
	resp, err := r.client.Post(r.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	if resp.StatusCode != http.StatusAccepted {
		_, _ = io.Copy(io.Discard, resp.Body)
		return "", resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", resp.StatusCode, fmt.Errorf("decode submit response: %w", err)
	}
	return st.ID, resp.StatusCode, nil
}

func (r *serveRig) get(path string, v any) error {
	resp, err := r.client.Get(r.ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// jobStatus and jobResult are the parts of the wire responses the
// benchmark reads.
type jobStatus struct {
	State     string  `json:"state"`
	Started   string  `json:"started"`
	Finished  string  `json:"finished"`
	QueueWait float64 `json:"queue_wait_seconds"`
}

type wireResult struct {
	ResultDigest  string    `json:"result_digest"`
	Cached        bool      `json:"cached"`
	Residual      obs.Float `json:"residual"`
	Orthogonality obs.Float `json:"orthogonality"`
	Detections    int       `json:"detections"`
	Recoveries    int       `json:"recoveries"`
	QCorrections  int       `json:"q_corrections"`
	Items         []struct {
		N             int       `json:"n"`
		Seed          uint64    `json:"seed"`
		ResultDigest  string    `json:"result_digest"`
		Residual      obs.Float `json:"residual"`
		Orthogonality obs.Float `json:"orthogonality"`
	} `json:"items"`
}

// sent is what the client saw of one job.
type sent struct {
	id                  string
	status              int
	sendAt, posted, end time.Time
	st                  jobStatus
	res                 wireResult
}

// served is one phase's jobs as the client saw them.
type served struct {
	jobs []serveJob
	sent []sent
	late []float64
	t0   time.Time // the time jobs' due times count from
}

// latency is job i's seconds from due time to done (0 if it never ran).
func (s *served) latency(i int) float64 {
	if s.sent[i].end.IsZero() {
		return 0
	}
	return s.sent[i].end.Sub(s.t0.Add(s.jobs[i].Due)).Seconds()
}

// drive sends jobs at their due times through one sender goroutine and
// waits until every accepted job is done. Latency is then sent[i].end
// minus the due time; traced runs record one span per job. Like every
// timed call, a phase starts from a freshly collected heap.
func (e *env) drive(rig *serveRig, jobs []serveJob, rec *recorder, parent int) (*served, error) {
	runtime.GC()
	s := &served{jobs: jobs, sent: make([]sent, len(jobs)), t0: time.Now()}
	var wg sync.WaitGroup
	c := wallClock{t0: s.t0}
	dues := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		dues[i] = j.Due
	}
	var sendErr error
	s.late = openLoop(c, dues, func(i int) {
		x := &s.sent[i]
		x.sendAt = time.Now()
		id, status, err := rig.post(jobs[i].Body)
		x.posted = time.Now()
		x.id, x.status = id, status
		if err != nil && sendErr == nil {
			sendErr = err
		}
		if status != http.StatusAccepted {
			return
		}
		j, ok := rig.srv.Job(id)
		if !ok {
			x.status = 0
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-j.Done()
			x.end = time.Now()
		}()
	})
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		return nil, errors.New("jobs still unfinished two minutes after the last send")
	}
	if sendErr != nil {
		return nil, sendErr
	}
	for i := range s.sent {
		x := &s.sent[i]
		if x.end.IsZero() {
			continue
		}
		id := rec.add("job", parent, s.t0.Add(jobs[i].Due), x.end)
		rec.add("POST /v1/jobs", id, x.sendAt, x.posted)
		rec.add("wait", id, x.posted, x.end)
	}
	return s, nil
}

// check reads every accepted job's status and result and verifies it:
// the job finished, fresh outputs meet the residual bound, and a repeat
// returned exactly its original's digest. digests, when not nil,
// collects the verified (n, seed) → digest pairs for recomputation.
func (e *env) check(rig *serveRig, s *served, digests map[[2]uint64]string, l *layers, rec *recorder, parent int) error {
	for i := range s.sent {
		e.res.attempted++
		x := &s.sent[i]
		job := s.jobs[i]
		if x.status != http.StatusAccepted {
			if x.status == http.StatusTooManyRequests {
				l.rejected++
			}
			e.fail("job %d: submit returned %d", i, x.status)
			continue
		}
		var err1, err2 error
		rec.call("GET /v1/jobs/{id}", parent, func() { err1 = rig.get("/v1/jobs/"+x.id, &x.st) })
		rec.call("GET /v1/jobs/{id}/result", parent, func() { err2 = rig.get("/v1/jobs/"+x.id+"/result", &x.res) })
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		if x.st.State != serve.StateDone {
			e.fail("job %d (%s): ended %s", i, job.Kind, x.st.State)
			continue
		}
		r := x.res
		switch job.Kind {
		case "fresh":
			if !(r.Residual <= residualTol) || !(r.Orthogonality <= residualTol) || r.ResultDigest == "" {
				e.fail("job %d: residuals %v / %v", i, r.Residual, r.Orthogonality)
				continue
			}
			if digests != nil {
				digests[[2]uint64{uint64(job.N), job.Seed}] = r.ResultDigest
			}
		case "repeat":
			orig := s.sent[job.Orig]
			if r.ResultDigest == "" || r.ResultDigest != orig.res.ResultDigest {
				e.fail("job %d: repeat of job %d returned another digest", i, job.Orig)
				continue
			}
		case "batch":
			if len(r.Items) != len(job.Items) {
				e.fail("job %d: %d items, want %d", i, len(r.Items), len(job.Items))
				continue
			}
			bad := false
			for _, it := range r.Items {
				bad = bad || !(it.Residual <= residualTol) || !(it.Orthogonality <= residualTol) || it.ResultDigest == ""
				if digests != nil {
					digests[[2]uint64{uint64(it.N), it.Seed}] = it.ResultDigest
				}
			}
			if bad {
				e.fail("job %d: a batch item failed its residual check", i)
				continue
			}
		}
		if job.Kind != "batch" {
			if n := r.Detections + r.QCorrections; n != 0 {
				l.ft.falseDet += float64(n)
				e.fail("job %d: fault-free job raised %d FT events", i, n)
			}
			if rec != nil {
				l.ft.ops++
				l.ft.detections += float64(r.Detections)
				l.ft.recoveries += float64(r.Recoveries)
				l.ft.qcorr += float64(r.QCorrections)
			}
		}
	}
	return nil
}

func parseTime(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s) // zero time when absent
	return t
}

func runServe(e *env) error {
	p := e.p
	var rig *serveRig
	var gflops, overhead []float64
	var probeA *matrix.Matrix
	var l layers
	rng := newRand(e.cfg.seed, streamServe)
	// A rep starts a fresh server, warms it with a few drained jobs, and
	// verifies a reference reduction at the largest interactive order
	// (which also gives the modeled numbers).
	err := e.setup(func(rep int) error {
		if rig != nil {
			if err := rig.close(); err != nil {
				return err
			}
		}
		rig = newServeRig()
		var warm []serveJob
		for i, n := range p.serveSizes {
			warm = append(warm, serveJob{Kind: "warm", Orig: -1,
				Body: fmt.Sprintf(`{"n":%d,"seed":%d}`, n, 1<<62+uint64(i))})
		}
		s, err := e.drive(rig, warm, nil, 0)
		if err != nil {
			return err
		}
		for _, x := range s.sent {
			if x.end.IsZero() {
				return fmt.Errorf("warm-up job not served (status %d)", x.status)
			}
		}
		a := matrix.Random(p.serveProbeN, p.serveProbeN, inputSeed(e.cfg.seed, streamServe, rep))
		ref, err := core.Reduce(a, core.Options{})
		if err != nil {
			return err
		}
		if err := e.verifyReference(a, ref); err != nil {
			return err
		}
		base, err := core.Reduce(a, core.Options{Algorithm: core.Baseline, CostOnly: true})
		if err != nil {
			return err
		}
		gflops = append(gflops, ref.ModelGFLOPS)
		overhead = append(overhead, overheadPct(ref.SimSeconds, base.SimSeconds))
		probeA = a
		return nil
	})
	if err != nil {
		return err
	}
	defer rig.close()
	e.res.e2e["modeled_gflops"] = median(gflops)
	e.res.e2e["modeled_ft_overhead_pct"] = median(overhead)
	digests := map[[2]uint64]string{}

	// Phase A: the open loop, traced throughout in a traced run.
	jobsA := serveSchedule(rng, p, int(phaseAShare*e.cfg.seconds*p.serveRate), p.serveRate)
	spanA := e.rec.begin("phase A", e.root)
	if e.rec != nil {
		blas.SetObs(e.blasReg)
	}
	cpu0 := processCPU()
	a, err := e.drive(rig, jobsA, e.rec, spanA)
	e.res.cpu = processCPU() - cpu0
	blas.SetObs(nil)
	e.rec.finish(spanA)
	if err != nil {
		return err
	}
	verifyA := e.rec.begin("verify", e.root)
	err = e.check(rig, a, digests, &l, e.rec, verifyA)
	e.rec.finish(verifyA)
	if err != nil {
		return err
	}
	lateMax := 0.0
	for _, v := range a.late {
		lateMax = max(lateMax, v)
	}
	e.res.detail["phase_a_jobs"] = len(jobsA)
	e.res.detail["gen_late_max_s"] = lateMax
	e.res.detail["gen_late_p90_s"] = quantile(a.late, 0.9)
	var hitLat, missLat, submit, exec, queue []float64
	for i, x := range a.sent {
		if x.end.IsZero() {
			continue
		}
		lat := a.latency(i)
		e.res.lat = append(e.res.lat, lat)
		e.res.traced = append(e.res.traced, e.rec != nil)
		submit = append(submit, x.posted.Sub(x.sendAt).Seconds())
		if t0, t1 := parseTime(x.st.Started), parseTime(x.st.Finished); !t0.IsZero() && !t1.IsZero() {
			exec = append(exec, t1.Sub(t0).Seconds())
		}
		queue = append(queue, x.st.QueueWait)
		if jobsA[i].Kind == "batch" {
			continue
		}
		if x.res.Cached {
			hitLat = append(hitLat, lat)
		} else {
			missLat = append(missLat, lat)
		}
	}
	if e.rec != nil {
		// Phase A's layers, before phase B adds to the registries.
		p50 := median(e.res.lat)
		e.blasLayer(sum(exec))
		e.simLayer(rig.reg)
		hits := rig.reg.CounterValue("serve_cache_hits_total")
		misses := rig.reg.CounterValue("serve_cache_misses_total")
		e.res.layer["batch.cache_hits"] = hits
		e.res.layer["batch.cache_misses"] = misses
		e.res.layer["batch.cache_coalesced"] = rig.reg.CounterValue("serve_cache_coalesced_total")
		e.res.layer["batch.cache_hit_ratio"] = ratio(hits, hits+misses)
		e.res.layer["batch.hit_speedup"] = ratio(median(missLat), median(hitLat))
		e.res.layer["batch.farm_modeled_items_per_s"] = ratio(rig.reg.CounterValue("batch_items_total"),
			rig.reg.GaugeValue("batch_farm_makespan_seconds"))
		e.res.layer["serve.submit_p50_share"] = ratio(quantile(submit, 0.5), p50)
		e.res.layer["serve.submit_p90_share"] = ratio(quantile(submit, 0.9), p50)
		e.res.layer["serve.exec_p50_share"] = ratio(median(exec), p50)
		e.res.layer["serve.queue_wait_p50_share"] = ratio(median(queue), p50)
		e.res.layer["serve.queue_wait_p90_share"] = ratio(quantile(queue, 0.9), p50)
		e.res.layer["benchmark.gen_late_max_frac"] = lateMax * p.serveRate
		e.res.layer["benchmark.gen_late_p90_frac"] = quantile(a.late, 0.9) * p.serveRate
	}

	// Phase B: bursts of the same mix submitted back to back, each to a
	// fresh server, and drained. Bursts come in pairs on one schedule, in
	// alternating order: untraced runs pair the FT mix with the same mix
	// on the non-FT baseline algorithm (ft_wall_ratio); traced runs pair a
	// traced with an untraced FT burst (obs.trace_overhead_frac).
	var drainJobs, drainSecs float64
	var ratios []float64
	budget := (1 - phaseAShare) * e.cfg.seconds
	for b, t0 := 0, time.Now(); b < 2 || time.Since(t0).Seconds() < budget; b++ {
		jobs := serveSchedule(rng, p, p.serveBurst, 0)
		var secs [2]float64 // FT (or traced), baseline (or untraced)
		for j := 0; j < 2; j++ {
			arm := (j + b) % 2
			var rec *recorder
			run := jobs
			switch {
			case e.rec != nil && arm == 0:
				rec = e.rec
				blas.SetObs(obs.NewRegistry())
			case e.rec == nil && arm == 1:
				run = baselineJobs(jobs)
			}
			burst := newServeRig()
			spanB := rec.begin("phase B burst", e.root)
			start := time.Now()
			s, err := e.drive(burst, run, rec, spanB)
			secs[arm] = time.Since(start).Seconds()
			rec.finish(spanB)
			blas.SetObs(nil)
			if err == nil {
				d := digests
				if e.rec == nil && arm == 1 {
					d = nil // baseline outputs are checked, not recomputed
				}
				err = e.check(burst, s, d, &l, nil, 0)
			}
			if cerr := burst.close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			if e.rec != nil || arm == 0 {
				drainJobs += float64(len(jobs))
				drainSecs += secs[arm]
			}
		}
		ratios = append(ratios, secs[0]/secs[1])
	}
	if e.rec != nil {
		e.res.layer["obs.trace_overhead_frac"] = median(ratios) - 1
	} else {
		e.res.ratios = ratios
	}
	e.res.wall["throughput_per_s"] = drainJobs / drainSecs
	e.res.detail["phase_b_jobs"] = drainJobs

	// Every repeat was checked against its original above; now recompute
	// a seeded sample of distinct jobs through core.Reduce.
	keys := make([][2]uint64, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	recompute := e.rec.begin("recompute", e.root)
	for _, k := range keys[:min(len(keys), p.serveRecheck)] {
		res, err := core.Reduce(matrix.Random(int(k[0]), int(k[0]), k[1]), core.Options{})
		if err != nil {
			return err
		}
		if res.Digest() != digests[k] {
			e.fail("recomputed n=%d seed=%d differs from the served digest", k[0], k[1])
		}
	}
	e.rec.finish(recompute)

	if e.rec != nil {
		// The device counters of one reduction at the largest
		// interactive order, on a device built here.
		opt, devs := devices(core.Options{}, 0, gpu.Real)
		if _, err := core.Reduce(probeA, opt); err != nil {
			return err
		}
		l.gpu.add(devs)
		e.probe(probeConfig{a: probeA})
	}
	l.report(e)
	return nil
}
