package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/fault"
	"repro/internal/matrix"
)

// Algorithm names accepted on the wire (JobRequest.Algorithm).
const (
	AlgFT       = "ft"
	AlgBaseline = "baseline"
	AlgCPU      = "cpu"
)

// Request-size guardrails: everything sized from an untrusted request is
// bounded before allocation.
const (
	// maxNB caps the block size; workspaces are N×NB so an absurd NB is
	// an allocation amplifier, and the algorithms gain nothing past the
	// panel widths the paper studies.
	maxNB = 512
	// maxFaults caps the injection schedule length per job.
	maxFaults = 64
	// maxDevices caps the per-job device-lease request before the
	// server-size check (Config.Devices) even runs.
	maxDevices = 64
	// maxBatchItems caps how many reductions one batched request may
	// carry; each item is bounded by maxN besides.
	maxBatchItems = 64
)

// Priority classes accepted on the wire (JobRequest.Priority).
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)

// FaultSpec is the wire form of one fault.Plan: a transient error
// injected at the start of a blocked iteration, or — when KillPoint is
// set — a permanent fail-stop device death.
type FaultSpec struct {
	// Area is the Figure 2(a) region: 1 (upper trailing), 2 (lower
	// trailing), 3 (host Q store), 4 (active panel). 0 is allowed for a
	// kill-only spec (KillPoint set, no transient injection).
	Area int `json:"area,omitempty"`
	// Iter is the blocked iteration at whose boundary the error strikes.
	Iter int `json:"iter"`
	// Count is the number of simultaneous errors (default 1).
	Count int `json:"count,omitempty"`
	// Delta is the additive magnitude (default 1.0; ignored for bit flips).
	Delta float64 `json:"delta,omitempty"`
	// BitFlip flips Bit of the IEEE-754 word instead of adding Delta.
	BitFlip bool `json:"bit_flip,omitempty"`
	Bit     uint `json:"bit,omitempty"`
	// Seed drives the deterministic position sampling.
	Seed uint64 `json:"seed,omitempty"`
	// KillPoint, when set, kills KillDevice permanently at this
	// iteration's named window ("boundary", "panel", "update",
	// "recovery") — a fail-stop loss, not a transient flip. KillDevice
	// is a slot of the job's pool, [0, devices), or 0 for a
	// single-device job. A pool job survives one loss by restarting on
	// the surviving devices; a single-device job fails uncorrectable.
	KillPoint  string `json:"kill_point,omitempty"`
	KillDevice int    `json:"kill_device,omitempty"`
}

func (f FaultSpec) plan() fault.Plan {
	return fault.Plan{
		Area: fault.Area(f.Area), TargetIter: f.Iter, Count: f.Count,
		Delta: f.Delta, BitFlip: f.BitFlip, Bit: f.Bit, Seed: f.Seed,
		KillPoint: fault.KillPoint(f.KillPoint), KillDevice: f.KillDevice,
	}
}

// JobRequest is the body of POST /v1/jobs. Fields mirror core.Options /
// core.SymOptions; the input matrix is either generated from (N, Seed) or
// uploaded inline as a Matrix Market document.
type JobRequest struct {
	// Algorithm is "ft" (default), "baseline", or "cpu".
	Algorithm string `json:"algorithm,omitempty"`
	// Symmetric selects the tridiagonalization path (core.ReduceSym);
	// the input is generated symmetric, or the uploaded matrix's lower
	// triangle is referenced.
	Symmetric bool `json:"symmetric,omitempty"`
	// N is the matrix order for generated inputs (ignored when
	// MatrixMarket is set, except that a non-zero N must then match).
	N int `json:"n,omitempty"`
	// NB is the block size (32 if zero).
	NB int `json:"nb,omitempty"`
	// Seed drives the deterministic input generator.
	Seed uint64 `json:"seed,omitempty"`
	// CostOnly models time only (device algorithms).
	CostOnly bool `json:"cost_only,omitempty"`
	// Pass-through fault-tolerance knobs (see core.Options).
	ThresholdFactor    float64 `json:"threshold_factor,omitempty"`
	FinalHCheck        bool    `json:"final_h_check,omitempty"`
	DisableQProtection bool    `json:"disable_q_protection,omitempty"`
	DisableOverlap     bool    `json:"disable_overlap,omitempty"`
	// Lookahead, when present and false, disables the depth-1 lookahead
	// schedule (panel k+1 factored under trailing update k). Absent or
	// true runs with lookahead — the default, and bit-identical either
	// way; only the modeled time changes.
	Lookahead *bool `json:"lookahead,omitempty"`
	// Devices, when > 0, leases that many whole devices from the server's
	// farm (Config.Devices) and runs the multi-device pool path; the job
	// waits until its subset is free. Requires a device algorithm
	// ("ft"/"baseline") on the Hessenberg path: the symmetric reduction
	// has no multi-device schedule. Either violation, or more devices
	// than the farm holds, is a 400 at submit.
	Devices int `json:"devices,omitempty"`
	// Substrate selects the BLAS fault-tolerance substrate on algorithm
	// "ft": "" or "swept" (default) keeps the iteration-boundary sweeps
	// only; "fused" additionally verifies every device BLAS call
	// in-kernel and maintains the multi-device panel-slab halo
	// incrementally. Results are bit-identical either way.
	Substrate string `json:"substrate,omitempty"`
	// Faults schedules transient-error injections (algorithm "ft" only).
	Faults []FaultSpec `json:"faults,omitempty"`
	// MatrixMarket, when non-empty, is the input matrix as an inline
	// Matrix Market document (array or coordinate format).
	MatrixMarket string `json:"matrix_market,omitempty"`
	// Priority is the fair-queue class: "interactive" (the default —
	// weight 4) or "batch" (weight 1, for throughput traffic that
	// tolerates latency). The weighted-fair scheduler keeps interactive
	// latency bounded under batch saturation; aging keeps batch from
	// starving under an interactive flood.
	Priority string `json:"priority,omitempty"`
	// Batch, when non-empty, makes this a batched job on the throughput
	// engine (Config.DeviceLanes > 0): each item is an independent
	// generated reduction, items sharing (n, nb) run back-to-back on one
	// fractional device lane, distinct shapes run concurrently. A batched
	// request must not set n, matrix_market, symmetric, devices,
	// faults, or algorithm "cpu"; nb is the items' default block size.
	Batch []BatchItemSpec `json:"batch,omitempty"`
}

// BatchItemSpec is one reduction of a batched job: a generated input of
// order N from Seed, reduced at block size NB (the request-level nb, or
// 32, when zero).
type BatchItemSpec struct {
	N    int    `json:"n"`
	NB   int    `json:"nb,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
}

// DecodeJobRequest parses and validates a job request. The decoder is
// strict — unknown fields, trailing data, and out-of-range values are
// errors — so that a 400 is the only possible outcome of a bad body; it
// never panics, whatever the input (fuzzed in request_fuzz_test.go).
func DecodeJobRequest(r io.Reader, maxN int) (*JobRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	req := &JobRequest{}
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("decode job request: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		return nil, errors.New("decode job request: trailing data after JSON body")
	}
	if err := req.validate(maxN); err != nil {
		return nil, err
	}
	return req, nil
}

func (r *JobRequest) validate(maxN int) error {
	switch r.Algorithm {
	case "", AlgFT, AlgBaseline, AlgCPU:
	default:
		return fmt.Errorf("unknown algorithm %q (want ft|baseline|cpu)", r.Algorithm)
	}
	switch r.Priority {
	case "", PriorityInteractive, PriorityBatch:
	default:
		return fmt.Errorf("unknown priority %q (want interactive|batch)", r.Priority)
	}
	if len(r.Batch) > 0 {
		if err := r.validateBatch(maxN); err != nil {
			return err
		}
	} else if r.MatrixMarket == "" && r.N < 1 {
		return errors.New("n must be >= 1 (or upload a matrix_market document)")
	}
	if r.N > maxN {
		return fmt.Errorf("n=%d exceeds this server's limit of %d", r.N, maxN)
	}
	if r.NB < 0 || r.NB > maxNB {
		return fmt.Errorf("nb=%d out of range [0,%d]", r.NB, maxNB)
	}
	if r.ThresholdFactor < 0 {
		return fmt.Errorf("threshold_factor=%g must be >= 0", r.ThresholdFactor)
	}
	if r.Devices < 0 || r.Devices > maxDevices {
		return fmt.Errorf("devices=%d out of range [0,%d]", r.Devices, maxDevices)
	}
	if r.Devices > 0 && r.Algorithm == AlgCPU {
		return errors.New("algorithm \"cpu\" cannot lease devices")
	}
	if r.Devices > 0 && r.Symmetric {
		return errors.New("devices is not supported on the symmetric path (no multi-device symmetric schedule)")
	}
	if len(r.Faults) > maxFaults {
		return fmt.Errorf("%d faults exceed the limit of %d", len(r.Faults), maxFaults)
	}
	if len(r.Faults) > 0 {
		if r.Symmetric {
			return errors.New("fault injection is not supported on the symmetric path")
		}
		if r.Algorithm == AlgBaseline || r.Algorithm == AlgCPU {
			return errors.New("fault injection requires algorithm \"ft\"")
		}
	}
	switch r.Substrate {
	case "", "swept", "fused":
	default:
		return fmt.Errorf("unknown substrate %q (want swept|fused)", r.Substrate)
	}
	if r.Substrate == "fused" {
		if r.Symmetric {
			return errors.New("substrate \"fused\" is not supported on the symmetric path")
		}
		if r.Algorithm == AlgBaseline || r.Algorithm == AlgCPU {
			return errors.New("substrate \"fused\" requires algorithm \"ft\"")
		}
	}
	for i, f := range r.Faults {
		if f.KillPoint != "" {
			if _, err := fault.ParseKillPoint(f.KillPoint); err != nil {
				return fmt.Errorf("faults[%d]: %v", i, err)
			}
			if slots := max(r.Devices, 1); f.KillDevice < 0 || f.KillDevice >= slots {
				return fmt.Errorf("faults[%d]: kill_device=%d out of range [0,%d)", i, f.KillDevice, slots)
			}
		} else if f.KillDevice != 0 {
			return fmt.Errorf("faults[%d]: kill_device requires kill_point", i)
		}
		// Area 0 is only meaningful for a kill-only spec.
		if f.Area == 0 && f.KillPoint == "" {
			return fmt.Errorf("faults[%d]: area=0 requires kill_point (kill-only spec)", i)
		}
		if f.Area != 0 && (f.Area < int(fault.Area1) || f.Area > int(fault.AreaPanel)) {
			return fmt.Errorf("faults[%d]: area=%d out of range [1,4]", i, f.Area)
		}
		if f.Iter < 0 {
			return fmt.Errorf("faults[%d]: iter must be >= 0", i)
		}
		if f.Count < 0 || f.Count > 16 {
			return fmt.Errorf("faults[%d]: count=%d out of range [0,16]", i, f.Count)
		}
		if f.Bit > 63 {
			return fmt.Errorf("faults[%d]: bit=%d out of range [0,63]", i, f.Bit)
		}
	}
	if r.N > 0 {
		return r.checkFaults(r.N)
	}
	return nil
}

// checkFaults refuses a fault spec that cannot strike an order-n input
// as stated (fault.Plan.Check): an iteration the reduction never runs,
// an empty area, or a count above the area's capacity, which would
// never finish drawing its positions. An upload's order is known only
// once it is parsed, so handleSubmit checks it then.
func (r *JobRequest) checkFaults(n int) error {
	iters := fault.BlockedIterations(n, r.NB)
	for i, f := range r.Faults {
		if err := f.plan().Check(n, r.NB, iters); err != nil {
			return fmt.Errorf("faults[%d]: %v", i, err)
		}
	}
	return nil
}

// validateBatch checks the batched-job shape: items bounded and well
// formed, and none of the single-job features that have no batched
// equivalent (uploads, whole-device leases, the symmetric path, fault
// injection, the host-only algorithm).
func (r *JobRequest) validateBatch(maxN int) error {
	if len(r.Batch) > maxBatchItems {
		return fmt.Errorf("%d batch items exceed the limit of %d", len(r.Batch), maxBatchItems)
	}
	if r.N != 0 {
		return errors.New("n must not be set on a batched job (items carry their own n)")
	}
	if r.MatrixMarket != "" {
		return errors.New("matrix_market is not supported on batched jobs")
	}
	if r.Symmetric {
		return errors.New("symmetric is not supported on batched jobs")
	}
	if r.Devices > 0 {
		return errors.New("devices (whole-device leases) cannot combine with batch (fractional lanes)")
	}
	if len(r.Faults) > 0 {
		return errors.New("fault injection is not supported on batched jobs")
	}
	if r.Algorithm == AlgCPU {
		return errors.New("algorithm \"cpu\" cannot run on device lanes")
	}
	for i, b := range r.Batch {
		if b.N < 1 {
			return fmt.Errorf("batch[%d]: n must be >= 1", i)
		}
		if b.N > maxN {
			return fmt.Errorf("batch[%d]: n=%d exceeds this server's limit of %d", i, b.N, maxN)
		}
		if b.NB < 0 || b.NB > maxNB {
			return fmt.Errorf("batch[%d]: nb=%d out of range [0,%d]", i, b.NB, maxNB)
		}
	}
	return nil
}

// class maps the request's priority to its fair-queue class.
func (r *JobRequest) class() string {
	if r.Priority == PriorityBatch {
		return PriorityBatch
	}
	return PriorityInteractive
}

// Matrix materializes the job's input: the uploaded Matrix Market
// document if present (bounded by maxN×maxN elements before any
// allocation), otherwise the deterministic generator at order N. The
// server parses uploads at submit, so a bad document is a 400, and
// generates the rest on the worker when the job starts, so a queued or
// rejected job holds no generated matrix.
func (r *JobRequest) Matrix(maxN int) (*matrix.Matrix, error) {
	if len(r.Batch) > 0 {
		// Batched jobs materialize per item on the engine lanes.
		return nil, nil
	}
	if r.MatrixMarket == "" {
		return r.generate(r.N, r.Seed), nil
	}
	a, err := matrix.ReadMatrixMarketLimit(strings.NewReader(r.MatrixMarket), int64(maxN)*int64(maxN))
	if err != nil {
		return nil, err
	}
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("uploaded matrix is %dx%d, not square", a.Rows, a.Cols)
	}
	if a.Rows < 1 {
		return nil, errors.New("uploaded matrix is empty")
	}
	if a.Rows > maxN {
		return nil, fmt.Errorf("uploaded matrix order %d exceeds this server's limit of %d", a.Rows, maxN)
	}
	if r.N != 0 && r.N != a.Rows {
		return nil, fmt.Errorf("n=%d does not match the uploaded %dx%d matrix", r.N, a.Rows, a.Cols)
	}
	if r.modelOnly() {
		return matrix.Shape(a.Rows, a.Cols), nil
	}
	return a, nil
}

// generate builds the seeded input of order n: uniform entries in
// [-1, 1), mirrored for the symmetric path, or only the shape when the
// run never reads values.
func (r *JobRequest) generate(n int, seed uint64) *matrix.Matrix {
	switch {
	case r.modelOnly():
		return matrix.Shape(n, n)
	case r.Symmetric:
		return matrix.RandomSymmetric(n, seed)
	}
	return matrix.Random(n, n, seed)
}

// modelOnly reports whether the job's reduction models time without
// reading its input: a cost-only run on a device schedule. The host-only
// algorithm ignores cost_only and computes, so it still needs values.
// Such a run has no cache key either: core.ResultKey refuses cost-only
// runs before it digests anything.
func (r *JobRequest) modelOnly() bool {
	return r.CostOnly && (r.Symmetric || r.algorithm() != AlgCPU)
}

func (r *JobRequest) algorithm() string {
	if r.Algorithm == "" {
		return AlgFT
	}
	return r.Algorithm
}
