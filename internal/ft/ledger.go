package ft

import "repro/internal/obs"

// Tally is a run's resilience account, kept by its ledger: reducers only
// emit journal records, and the ledger applies each, through the table
// row of its kind and target, to the Tally, the registry and the journal.
// Every field but SubstrateChecks (the fused substrate's per-kernel
// checks, added in bulk) is thus the fold of the run's journal (Fold),
// as are serve's per-job reliability summary and the FT counters. A run
// that fails still reports what its attempts counted, and a rerun from
// the input (the post-processing comparator's, or the restart after a
// device loss) keeps counting into its parent's tally.
type Tally struct {
	// ChecksumChecks counts checksum comparisons of H.
	ChecksumChecks int
	// Detections counts checksum mismatches in H found by a check.
	Detections int
	// Recoveries counts recovery cycles: reverse, correct and re-execute
	// on one device, an in-place slab repair on a pool, and the
	// post-processing comparator's rerun.
	Recoveries int
	// Reexecutions counts blocked iterations repeated after recovery.
	Reexecutions int
	// Checkpoints counts diskless panel-checkpoint captures.
	Checkpoints int
	// CorrectedH lists the corrected device-matrix positions. Row = Col
	// = −1 marks the one representative repair a cost-only run models
	// for a flagged block: it has no data to locate with.
	CorrectedH []Injection
	// QCorrections counts elements repaired by the Q checksum check.
	QCorrections int
	// DeviceLosses counts fail-stop device deaths.
	DeviceLosses int
	// FailStopRecoveries counts restarts on the surviving devices after
	// a loss.
	FailStopRecoveries int
	// SubstrateChecks and SubstrateDetections count the fused-ABFT
	// substrate's per-call checksum verifications and detections
	// (Options.Substrate = "fused"). Substrate detection is report-only,
	// but a non-finite checksum total fails the run with
	// ErrUncorrectable.
	SubstrateChecks     int
	SubstrateDetections int
}

// rowKey selects a ledger row: a record's kind and target, and whether
// it is the fused substrate's detection record.
type rowKey struct {
	kind      obs.Kind
	target    obs.Target
	substrate bool
}

// keyOf is e's row key.
func keyOf(e obs.Event) rowKey { return rowKey{e.Kind, e.Target, e.Outcome == outcomeSubstrate} }

// row is one tally: the counter a record increments, as
// <prefix>_<counter>_total, and add, which applies the record to a Tally
// and returns the counter's increment.
type row struct {
	counter string
	add     func(t *Tally, e obs.Event) float64
}

// ledgerRows is the table. Records without a row (locations, reverse
// computations, checkpoint restores, Q checks, injections) are
// journal-only.
var ledgerRows = map[rowKey]row{
	{obs.KindChecksumCheck, obs.TargetH, false}:  {"checksum_checks", func(t *Tally, _ obs.Event) float64 { t.ChecksumChecks++; return 1 }},
	{obs.KindDetection, obs.TargetH, false}:      {"detections", func(t *Tally, _ obs.Event) float64 { t.Detections++; return 1 }},
	{obs.KindRecovery, obs.TargetH, false}:       {"recoveries", func(t *Tally, _ obs.Event) float64 { t.Recoveries++; return 1 }},
	{obs.KindReexecution, obs.TargetH, false}:    {"reexecutions", func(t *Tally, _ obs.Event) float64 { t.Reexecutions++; return 1 }},
	{obs.KindCheckpointSave, obs.TargetH, false}: {"checkpoints", func(t *Tally, _ obs.Event) float64 { t.Checkpoints++; return 1 }},
	{obs.KindCorrection, obs.TargetQ, false}:     {"q_corrections", func(t *Tally, _ obs.Event) float64 { t.QCorrections++; return 1 }},
	{obs.KindDeviceLoss, obs.TargetH, false}:     {"device_losses", func(t *Tally, _ obs.Event) float64 { t.DeviceLosses++; return 1 }},
	{obs.KindReconstruction, obs.TargetH, false}: {"failstop_reconstructions", func(t *Tally, _ obs.Event) float64 { t.FailStopRecoveries++; return 1 }},
	{obs.KindCorrection, obs.TargetH, false}: {"corrections", func(t *Tally, e obs.Event) float64 {
		t.CorrectedH = append(t.CorrectedH, Injection{Row: e.Row, Col: e.Col, Delta: float64(e.Value), Target: TargetH, Iter: e.Iter})
		return 1
	}},
	{obs.KindDetection, obs.TargetH, true}: {"substrate_detections", func(t *Tally, e obs.Event) float64 {
		t.SubstrateDetections += int(e.Value)
		return float64(e.Value)
	}},
}

// outcomeSubstrate marks the fused substrate's detection record.
const outcomeSubstrate = "substrate"

// Fold tallies journal records through the ledger table: the Tally of
// the run (or runs) that emitted them, SubstrateChecks aside.
func Fold(events []obs.Event) Tally {
	var t Tally
	for _, e := range events {
		if r, ok := ledgerRows[keyOf(e)]; ok {
			r.add(&t, e)
		}
	}
	return t
}

// ftCounters name the counters a Hessenberg run exposes, as
// ft_<name>_total; a symmetric run exposes the first six, as
// ftsym_<name>_total.
var ftCounters = []string{"checksum_checks", "detections", "corrections", "recoveries", "reexecutions", "checkpoints",
	"q_corrections", "device_losses", "failstop_reconstructions", "substrate_checks", "substrate_detections"}

// ledger applies a run's records to its tally, counters and journal.
// now is the run's simulated clock; journal and reg may be nil; prefix
// names the counters ("ft" or "ftsym").
type ledger struct {
	now     func() float64
	t       *Tally
	journal *obs.Journal
	reg     *obs.Registry
	labels  []obs.Label
	prefix  string
	// device is stamped on records that name no device (the
	// single-device reducer's device).
	device string
}

// newLedger returns the ledger of a run counting into t. It pre-touches
// the named counters so a clean run still exposes them at zero.
func newLedger(now func() float64, t *Tally, j *obs.Journal, reg *obs.Registry, tr *obs.TraceContext, prefix string, counters []string) ledger {
	var labels []obs.Label
	if job := tr.JobID(); job != "" {
		labels = []obs.Label{obs.L("job", job)}
	}
	for _, name := range counters {
		reg.Counter(prefix+"_"+name+"_total", labels...)
	}
	return ledger{now: now, t: t, journal: j, reg: reg, labels: labels, prefix: prefix}
}

// emit stamps e with the clock (an event without a target concerns H)
// and applies it.
func (l *ledger) emit(e obs.Event) {
	e.SimTime = l.now()
	if e.Target == "" {
		e.Target = obs.TargetH
	}
	if e.Device == "" {
		e.Device = l.device
	}
	if r, ok := ledgerRows[keyOf(e)]; ok {
		l.addCounter(r.counter, r.add(l.t, e))
	}
	l.journal.Append(e)
}

// record emits a record of kind at iteration iter with its value, its
// outcome and the device it concerns.
func (l *ledger) record(kind obs.Kind, iter int, value float64, outcome, device string) {
	ev := obs.Ev(kind, iter)
	ev.Value, ev.Outcome, ev.Device = obs.Float(value), outcome, device
	l.emit(ev)
}

// addCounter increments the run's <prefix>_<name>_total counter by v.
func (l *ledger) addCounter(name string, v float64) {
	if l.reg != nil {
		l.reg.Counter(l.prefix+"_"+name+"_total", l.labels...).Add(v)
	}
}

// substrate adds one device's fused-substrate statistics at iteration
// iter: its checks in bulk, and its detections as one record.
func (l *ledger) substrate(checks, detections int64, iter int, device string) {
	l.t.SubstrateChecks += int(checks)
	l.addCounter("substrate_checks", float64(checks))
	if detections > 0 {
		l.record(obs.KindDetection, iter, float64(detections), outcomeSubstrate, device)
	}
}
