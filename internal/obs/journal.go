package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
)

// The FT event journal: an append-only sequence of typed records tracing
// the fault-tolerance machinery — checksum checks, detections, locations,
// corrections, reverse computations, checkpoint saves/restores, and
// re-executions — each stamped with the blocked iteration, the protected
// target (H or Q), the simulated time, and an outcome. internal/ft (both
// reduction families) and internal/fault append to it; one run exports as JSONL
// for offline analysis alongside the metrics exposition.

// Target identifies which protected memory a record concerns.
type Target string

const (
	// TargetH is the device-resident data matrix (trailing matrix / H).
	TargetH Target = "H"
	// TargetQ is the host-resident Householder-vector storage.
	TargetQ Target = "Q"
)

// Kind is the record type.
type Kind string

const (
	// KindChecksumCheck is one end-of-iteration Sre/Sce comparison.
	KindChecksumCheck Kind = "checksum_check"
	// KindDetection is a checksum mismatch above threshold.
	KindDetection Kind = "detection"
	// KindLocation is the residual analysis pinpointing error positions.
	KindLocation Kind = "location"
	// KindCorrection is one corrected element (Row/Col/Value meaningful).
	KindCorrection Kind = "correction"
	// KindReverse is a reverse computation undoing the iteration's updates.
	KindReverse Kind = "reverse_computation"
	// KindCheckpointSave is a diskless panel checkpoint capture.
	KindCheckpointSave Kind = "checkpoint_save"
	// KindCheckpointRestore is a panel restore from the checkpoint.
	KindCheckpointRestore Kind = "checkpoint_restore"
	// KindReexecution is a repeated blocked iteration after recovery.
	KindReexecution Kind = "reexecution"
	// KindInjection is a fault planted by the campaign driver.
	KindInjection Kind = "injection"
	// KindDeviceLoss is a fail-stop device death (permanent, unlike the
	// transient corruptions above); Outcome names the kill point.
	KindDeviceLoss Kind = "device_loss"
	// KindReconstruction is a fail-stop recovery: the restart of the
	// reduction from its input on the devices that survived a loss.
	KindReconstruction Kind = "reconstruction"
)

// Event is one journal record. Row and Col are -1 unless the record is
// element-specific (corrections, injections). SimTime is the simulated
// clock at append time.
type Event struct {
	Seq     int     `json:"seq"`
	SimTime float64 `json:"sim_time"`
	Kind    Kind    `json:"kind"`
	Iter    int     `json:"iter"`
	Target  Target  `json:"target,omitempty"`
	Outcome string  `json:"outcome,omitempty"`
	Row     int     `json:"row"`
	Col     int     `json:"col"`
	Value   Float   `json:"value,omitempty"`
	// Job attributes the record to a served request (stamped by the
	// journal, see Stamp); empty for offline runs.
	Job string `json:"job,omitempty"`
	// Device names the pool device the record concerns ("d0", "d1", …);
	// empty for single-device and host-only runs.
	Device string `json:"device,omitempty"`
}

// Float is a float64 that round-trips the non-finite values JSON cannot
// represent. Journaled quantities can legitimately be non-finite — the
// detection gap |Sre−Sce| is ±Inf or NaN after an overflow-inducing bit
// flip — and a journal that fails to serialize exactly when something
// interesting happened would be useless. Non-finite values encode as the
// strings "+Inf", "-Inf", "NaN"; everything else as a plain number.
type Float float64

func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

func (f *Float) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf":
			*f = Float(math.Inf(1))
		case "-Inf":
			*f = Float(math.Inf(-1))
		case "NaN":
			*f = Float(math.NaN())
		default:
			return fmt.Errorf("obs: bad float %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Ev returns an Event skeleton with Row/Col marked not-applicable.
func Ev(kind Kind, iter int) Event {
	return Event{Kind: kind, Iter: iter, Row: -1, Col: -1}
}

// Journal is an append-only, concurrency-safe event log. A nil *Journal
// absorbs every call, so instrumented code needs no conditionals.
type Journal struct {
	mu     sync.Mutex
	events []Event
	job    string
	tee    *FlightRecorder
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// Stamp sets the job identifier stamped onto every subsequently appended
// record (request attribution for served runs). Safe on nil.
func (j *Journal) Stamp(job string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.job = job
	j.mu.Unlock()
}

// Tee forwards every subsequently appended record (after stamping) to
// the flight recorder as well, so the bounded cross-job postmortem view
// sees the same events the per-job journal retains. Safe on nil.
func (j *Journal) Tee(rec *FlightRecorder) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.tee = rec
	j.mu.Unlock()
}

// Append adds one record, assigning its sequence number and stamping the
// journal's job id (unless the record already carries one). Safe on nil.
func (j *Journal) Append(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	e.Seq = len(j.events)
	if e.Job == "" {
		e.Job = j.job
	}
	j.events = append(j.events, e)
	tee := j.tee
	j.mu.Unlock()
	tee.Record(EventFromJournal(e))
}

// Len returns the number of records. Safe on nil.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}

// Events returns a copy of all records in append order. Safe on nil.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...)
}

// Counts tallies records by kind. Safe on nil.
func (j *Journal) Counts() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range j.Events() {
		out[e.Kind]++
	}
	return out
}

// WriteJSONL writes one JSON object per line in append order. Safe on nil
// (writes nothing).
func (j *Journal) WriteJSONL(w io.Writer) error {
	for _, e := range j.Events() {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
