package serve

import (
	"math"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// JobResult is the wire form of GET /v1/jobs/{id}/result. Residuals use
// obs.Float so that non-finite values — a cost-only run has no numerics,
// and an unrecovered fault can blow a residual up to ±Inf — survive the
// JSON round trip instead of failing to encode (encoding/json rejects
// IEEE specials on a bare float64).
type JobResult struct {
	ID        string `json:"id"`
	Algorithm string `json:"algorithm"`
	Symmetric bool   `json:"symmetric,omitempty"`
	N         int    `json:"n"`
	NB        int    `json:"nb"`

	// Simulated performance (zero for the CPU path).
	SimSeconds  obs.Float `json:"sim_seconds"`
	ModelGFLOPS obs.Float `json:"model_gflops"`

	// Resilience statistics (fault-tolerant paths).
	Detections   int `json:"detections"`
	Recoveries   int `json:"recoveries"`
	Corrections  int `json:"corrections"`
	QCorrections int `json:"q_corrections"`
	// Fail-stop statistics (multi-device "ft" jobs): permanent device
	// deaths and the restarts on the surviving devices that outlived
	// them.
	DeviceLosses       int `json:"device_losses,omitempty"`
	FailStopRecoveries int `json:"failstop_recoveries,omitempty"`

	// Numerical quality against the submitted matrix: ‖A−QHQᵀ‖₁/(N‖A‖₁)
	// and ‖QQᵀ−I‖₁/N. NaN for cost-only runs, which skip the arithmetic.
	Residual      obs.Float `json:"residual"`
	Orthogonality obs.Float `json:"orthogonality"`

	// ResultDigest is the canonical SHA-256 of the factorization (packed
	// + tau, the `fthess -checksum` fingerprint) — the bit-identity the
	// determinism contracts promise, checkable by clients. Empty for
	// cost-only and symmetric runs.
	ResultDigest string `json:"result_digest,omitempty"`
	// Cached is true when this result was served from the digest-keyed
	// result cache instead of being recomputed.
	Cached bool `json:"cached,omitempty"`

	// Items holds the per-reduction outcomes of a batched job, in request
	// order. For batched jobs the top-level SimSeconds is the summed
	// device-seconds of the items (their concurrency lives on the lane
	// clocks; each item reports its modeled lane window).
	Items []BatchItemResult `json:"items,omitempty"`
}

// BatchItemResult is one item of a batched job's result.
type BatchItemResult struct {
	Index int    `json:"index"`
	N     int    `json:"n"`
	NB    int    `json:"nb"`
	Seed  uint64 `json:"seed"`

	// Lane is the fractional lease that ran the item ("d0.l1"); LaneStart
	// and LaneEnd are its modeled window on that device's virtual clock.
	// Empty/zero for cache hits, which consume no device time.
	Lane      string  `json:"lane,omitempty"`
	LaneStart float64 `json:"lane_start_seconds,omitempty"`
	LaneEnd   float64 `json:"lane_end_seconds,omitempty"`

	SimSeconds  obs.Float `json:"sim_seconds"`
	ModelGFLOPS obs.Float `json:"model_gflops"`

	Residual      obs.Float `json:"residual"`
	Orthogonality obs.Float `json:"orthogonality"`

	ResultDigest string `json:"result_digest,omitempty"`
	Cached       bool   `json:"cached,omitempty"`
}

// cachedRun is the wire result of one reduction as an immutable
// template: no job ID, not cached, no items. It is what the result cache
// stores (residuals included — they are a pure function of the cached
// input/output pair, so a hit pays no O(N³) verification either), shared
// by every future hit, so it is never mutated; jobResult and itemResult
// hand out copies.
type cachedRun struct {
	tpl JobResult
}

// newCachedRun assembles the result template of one reduction.
func newCachedRun(req *JobRequest, a *matrix.Matrix, res *core.Result) *cachedRun {
	c := &cachedRun{tpl: JobResult{
		Algorithm: req.algorithm(),
		N:         res.N,
		NB:        res.NB,

		SimSeconds:  obs.Float(res.SimSeconds),
		ModelGFLOPS: obs.Float(res.ModelGFLOPS),

		Detections:   res.Detections,
		Recoveries:   res.Recoveries,
		Corrections:  len(res.CorrectedH),
		QCorrections: res.QCorrections,

		DeviceLosses:       res.DeviceLosses,
		FailStopRecoveries: res.FailStopRecoveries,

		Residual:      obs.Float(math.NaN()),
		Orthogonality: obs.Float(math.NaN()),
	}}
	if !req.CostOnly {
		residual, orthogonality := res.Checks(a)
		c.tpl.Residual, c.tpl.Orthogonality = obs.Float(residual), obs.Float(orthogonality)
		c.tpl.ResultDigest = res.Digest()
	}
	return c
}

// jobResult instantiates the template for one served job.
func (c *cachedRun) jobResult(j *Job, cached bool) *JobResult {
	out := c.tpl
	out.ID = j.ID
	out.Cached = cached
	return &out
}

// itemResult instantiates the template as one batched item.
func (c *cachedRun) itemResult(idx int, seed uint64, cached bool) BatchItemResult {
	return BatchItemResult{
		Index: idx, N: c.tpl.N, NB: c.tpl.NB, Seed: seed,
		SimSeconds: c.tpl.SimSeconds, ModelGFLOPS: c.tpl.ModelGFLOPS,
		Residual: c.tpl.Residual, Orthogonality: c.tpl.Orthogonality,
		ResultDigest: c.tpl.ResultDigest, Cached: cached,
	}
}

// symResult builds the response for the tridiagonalization path.
func symResult(j *Job, a *matrix.Matrix, res *core.SymResult) *JobResult {
	out := &JobResult{
		ID:        j.ID,
		Algorithm: j.req.algorithm(),
		Symmetric: true,
		N:         res.N,
		NB:        res.NB,

		SimSeconds:  obs.Float(res.SimSeconds),
		ModelGFLOPS: obs.Float(res.ModelGFLOPS),

		Detections:  res.Detections,
		Recoveries:  res.Recoveries,
		Corrections: len(res.CorrectedH),

		Residual:      obs.Float(math.NaN()),
		Orthogonality: obs.Float(math.NaN()),
	}
	if !j.req.CostOnly {
		residual, orthogonality := res.Checks(a)
		out.Residual, out.Orthogonality = obs.Float(residual), obs.Float(orthogonality)
	}
	return out
}
