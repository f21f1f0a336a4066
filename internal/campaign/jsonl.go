package campaign

import (
	"bufio"
	"encoding/json"
	"io"

	"repro/internal/obs"
)

// The machine-readable trial stream: one JSON object per trial, written in
// canonical (cell-major, trial-minor) order. The file doubles as the
// resume journal — LoadTrialJSONL turns a partial file back into the
// Sweep.Resume map, and a resumed sweep appends only the missing records.

// JSONFloat is a float64 that round-trips the non-finite values JSON
// cannot represent: an exponent-bit flip can push a trial's residual to
// ±Inf or NaN (the detector refuses such runs, but the record must still
// serialize). See obs.Float for the encoding.
type JSONFloat = obs.Float

// InjectionSummary describes one planned error of a trial: enough, with
// the trial seed, to replay the trial exactly.
type InjectionSummary struct {
	Iter int    `json:"iter"`
	Area string `json:"area"`
	Bit  uint   `json:"bit"`
}

// TrialRecord is one JSONL line: the trial's cell (its fields serialize
// first, in order), the trial's derived seed, and everything measured.
// The cell axes added over time (devices, no_lookahead, kill_rate,
// substrate) are omitted at their defaults, so an old record reads back
// as, and resume-matches only, a default cell.
type TrialRecord struct {
	Cell
	Trial int    `json:"trial"`
	Seed  uint64 `json:"seed"`

	Outcome string             `json:"outcome"`
	Plans   []InjectionSummary `json:"plans,omitempty"`
	// Injections counts performed corruptions (a plan can be void, e.g.
	// Area 3 before any panel has finished).
	Injections   int `json:"injections"`
	Detections   int `json:"detections"`
	Recoveries   int `json:"recoveries"`
	Reexecutions int `json:"reexecutions"`
	QCorrections int `json:"q_corrections"`
	// The trial's sampled fail-stop kill (kill-rate cells with a loss
	// drawn): where the device died and whether the restart recovered it.
	KillIter           int    `json:"kill_iter,omitempty"`
	KillPoint          string `json:"kill_point,omitempty"`
	KillDevice         int    `json:"kill_device,omitempty"`
	DeviceLosses       int    `json:"device_losses,omitempty"`
	FailStopRecoveries int    `json:"failstop_recoveries,omitempty"`
	// Fused-substrate tallies (substrate "fused" cells only): per-call
	// in-kernel checksum verifications and detections.
	SubstrateChecks     int       `json:"substrate_checks,omitempty"`
	SubstrateDetections int       `json:"substrate_detections,omitempty"`
	Residual            JSONFloat `json:"residual"`
	SimSeconds          float64   `json:"sim_seconds"`
	Err                 string    `json:"err,omitempty"`

	out Outcome
}

// outcome returns the parsed Outcome (set at creation or load time).
func (r TrialRecord) outcome() Outcome { return r.out }

// writeTrialRecord emits one JSONL line.
func writeTrialRecord(w io.Writer, rec TrialRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// LoadTrialJSONL reads a (possibly partial) trial stream back into the
// resume map keyed by (cell, trial). Unparsable lines — e.g. a record
// truncated by an interrupted run — and records that ended in an error are
// skipped, so the corresponding trials re-execute.
func LoadTrialJSONL(r io.Reader) (map[TrialKey]TrialRecord, error) {
	out := map[TrialKey]TrialRecord{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec TrialRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			continue
		}
		if rec.Err != "" {
			continue
		}
		o, err := ParseOutcome(rec.Outcome)
		if err != nil {
			continue
		}
		rec.out = o
		out[TrialKey{Cell: rec.Index, Trial: rec.Trial}] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
