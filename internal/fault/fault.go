// Package fault implements the paper's failure model (Section IV-A) and
// the injection methodology of its evaluation (Section VI), plus a
// beyond-paper fail-stop extension (DESIGN.md §13, flagged per the
// DESIGN.md §2 convention).
//
// The paper's model is transient: single- or multi-element corruptions
// injected at blocked-iteration boundaries ("the error is injected when
// iteration i has finished, and iteration i+1 has not yet started"),
// aimed at the three areas of Figure 2(a):
//
//	Area 1 — the upper part of the trailing matrix (intermediate data
//	         above the panel rows); the error propagates row-wise.
//	Area 2 — the lower part of the trailing matrix; the error propagates
//	         into almost the whole trailing block.
//	Area 3 — the finished part on the host (the Householder vectors of
//	         Q); the error does not propagate.
//
// The fail-stop extension models a different failure class: a pool
// device that goes permanently dead mid-iteration (Plan.KillPoint /
// Plan.KillDevice), taking every slab it owns with it. Unlike a
// transient flip — corrupted values in memory that still responds — a
// killed device never answers again: reads return poison, writes are
// dropped, and internal/ft survives the loss by restarting the
// reduction from its input on the surviving devices. The KillPoint
// names where inside the blocked iteration the loss strikes (boundary,
// panel offload, mid trailing update, or as the restart begins), so
// tests and the campaign can stress each window.
//
// The Injector type implements ft.Hook for the fault-tolerant reduction
// and also adapts to the baseline hybrid reduction's BeforeIteration hook
// for the Figure 2 propagation study.
package fault

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/ft"
	"repro/internal/gpu"
	"repro/internal/hybrid"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// Area selects an injection region of Figure 2(a).
type Area int

const (
	// Area1 is the upper part of the trailing matrix.
	Area1 Area = 1
	// Area2 is the lower (G) part of the trailing matrix.
	Area2 Area = 2
	// Area3 is the finished Householder-vector region on the host.
	Area3 Area = 3
	// AreaPanel is the sub-region of Area 2 holding the panel columns the
	// upcoming iteration factorizes — the data that is about to be sent to
	// the host and diskless-checkpointed, so an error here is captured by
	// the checkpoint itself and must be caught by the checksum location
	// step rather than the restore (an extension of the paper's A1/A2/A3
	// taxonomy used by the campaign engine's region sweeps).
	AreaPanel Area = 4
)

func (a Area) String() string {
	switch a {
	case Area1:
		return "Area1"
	case Area2:
		return "Area2"
	case Area3:
		return "Area3"
	case AreaPanel:
		return "Panel"
	}
	return fmt.Sprintf("Area(%d)", int(a))
}

// Region groups the injection areas by the memory they live in, the
// granularity at which the campaign engine sweeps targets: the paper's
// Tables II-III split results by H-side (trailing matrix, Areas 1-2)
// versus Q-side (host Householder store, Area 3) protection.
type Region int

const (
	// RegionAll samples all areas, weighted by their memory footprint.
	RegionAll Region = iota
	// RegionH restricts injections to the device trailing matrix
	// (Areas 1 and 2), the data protected by the Sre/Sce checksums.
	RegionH
	// RegionQ restricts injections to the host Householder storage
	// (Area 3), protected by the end-of-run Q checksums.
	RegionQ
	// RegionPanel restricts injections to the active panel columns
	// (AreaPanel), stressing the diskless-checkpoint path.
	RegionPanel
)

func (r Region) String() string {
	switch r {
	case RegionAll:
		return "all"
	case RegionH:
		return "h"
	case RegionQ:
		return "q"
	case RegionPanel:
		return "panel"
	}
	return fmt.Sprintf("Region(%d)", int(r))
}

// ParseRegion inverts Region.String.
func ParseRegion(s string) (Region, error) {
	switch s {
	case "all":
		return RegionAll, nil
	case "h":
		return RegionH, nil
	case "q":
		return RegionQ, nil
	case "panel":
		return RegionPanel, nil
	}
	return RegionAll, fmt.Errorf("fault: unknown region %q (want all|h|q|panel)", s)
}

// MarshalJSON encodes a Region as its name, keeping campaign artifacts
// readable and stable across enum reordering.
func (r Region) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.String())
}

// UnmarshalJSON decodes a Region name.
func (r *Region) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseRegion(s)
	if err != nil {
		return err
	}
	*r = parsed
	return nil
}

// Moment names when during the factorization the error strikes, matching
// the B/M/E columns of the paper's Tables II and III.
type Moment int

const (
	// Beginning injects at the earliest iteration that can host the area.
	Beginning Moment = iota
	// Middle injects halfway through the blocked iterations.
	Middle
	// End injects at the last blocked iteration.
	End
)

func (m Moment) String() string {
	switch m {
	case Beginning:
		return "B"
	case Middle:
		return "M"
	case End:
		return "E"
	}
	return "?"
}

// BlockedIterations returns the number of blocked iterations the hybrid
// algorithm performs for order n and block size nb (mirroring the loop
// bound in hybrid.Reduce; nb ≤ 0 is the default block size, as there).
func BlockedIterations(n, nb int) int {
	if nb <= 0 {
		nb = hybrid.DefaultNB
	}
	nx := nb
	if nx < 2 {
		nx = 2
	}
	iters := 0
	for p := 0; n-1-p > nx; p += nb {
		iters++
	}
	return iters
}

// IterForMoment maps a Moment to a concrete blocked-iteration index.
// Area 3 needs at least one finished panel, so its Beginning is
// iteration 1.
func IterForMoment(n, nb int, m Moment, area Area) int {
	total := BlockedIterations(n, nb)
	if total == 0 {
		return 0
	}
	switch m {
	case Beginning:
		if area == Area3 {
			return min(1, total-1)
		}
		return 0
	case Middle:
		return total / 2
	default:
		return total - 1
	}
}

// Pos is an explicit injection position (global matrix indices).
type Pos struct {
	Row, Col int
}

// KillPoint names the program point within a blocked iteration at which
// a fail-stop device loss strikes (beyond-paper, DESIGN.md §13). Kills
// fire where the host next touches the pool, mirroring real detection:
// a lost device is noticed there, and the attempt ends.
type KillPoint string

const (
	// KillNone means the plan kills no device.
	KillNone KillPoint = ""
	// KillBoundary kills at the iteration boundary, before the checksum
	// sweep — the device dies with only completed iterations on it.
	KillBoundary KillPoint = "boundary"
	// KillPanel kills as the panel offload begins — after the boundary
	// checksum sweep, before PanelD2H reads the panel slab.
	KillPanel KillPoint = "panel"
	// KillUpdate kills mid-iteration, after the right update but before
	// the left update — the lookahead-split window where priority and
	// remainder state coexist.
	KillUpdate KillPoint = "update"
	// KillRecovery arms a second loss that fires the moment the restart
	// after a first loss begins: the double-fault case, which must
	// surface as ErrUncorrectable, never silently.
	KillRecovery KillPoint = "recovery"
)

// ParseKillPoint validates a kill-point name.
func ParseKillPoint(s string) (KillPoint, error) {
	switch KillPoint(s) {
	case KillNone, KillBoundary, KillPanel, KillUpdate, KillRecovery:
		return KillPoint(s), nil
	}
	return KillNone, fmt.Errorf("fault: unknown kill point %q (want boundary|panel|update|recovery)", s)
}

// Plan describes a deterministic injection campaign.
type Plan struct {
	// Area selects the target region (ignored when Positions is set).
	Area Area
	// TargetIter is the blocked iteration at whose start the injection
	// happens.
	TargetIter int
	// Positions optionally pins exact elements (e.g. the paper's
	// Figure 2 coordinates). When empty, Count positions are drawn
	// deterministically from Area using Seed.
	Positions []Pos
	// Count is the number of simultaneous errors (default 1).
	Count int
	// Delta is the additive perturbation magnitude (default 1.0).
	// Ignored when BitFlip is set.
	Delta float64
	// BitFlip, when true, flips Bit of the IEEE-754 representation
	// instead of adding Delta.
	BitFlip bool
	Bit     uint
	// Seed drives the deterministic position sampling.
	Seed uint64
	// KillPoint, when non-empty, turns the plan into (or adds) a
	// fail-stop device loss: device KillDevice dies permanently at this
	// point of TargetIter. A plan with a KillPoint and no Area performs
	// no transient injection.
	KillPoint KillPoint
	// KillDevice is the pool index of the device to kill.
	KillDevice int
}

// Injector performs the injections of one or more Plans (one per target
// iteration — the paper's "more than one consecutive error" scenario:
// after correcting the errors of one iteration, the algorithm must keep
// detecting and correcting subsequent ones). It implements ft.Hook.
type Injector struct {
	plans    []Plan
	pendingH int
	// Log records every injection actually performed.
	Log []ft.Injection
	// Journal, when set, receives one obs.KindInjection event per
	// performed injection, stamped with the device's simulated time.
	Journal *obs.Journal
}

// New returns an Injector for the given plan.
func New(plan Plan) *Injector {
	return NewSchedule(plan)
}

// NewSchedule returns an Injector firing each plan at its own target
// iteration.
func NewSchedule(plans ...Plan) *Injector {
	norm := make([]Plan, len(plans))
	for i, p := range plans {
		if p.Count <= 0 {
			p.Count = 1
		}
		if p.Delta == 0 && !p.BitFlip {
			p.Delta = 1.0
		}
		norm[i] = p
	}
	return &Injector{plans: norm}
}

// capacity returns how many positions a plan can draw from area at
// blocked iteration iter (one that runs) of an n×n, nb-blocked run:
// positions in distinct rows and distinct columns, off the diagonal,
// which the draw completes whatever it drew first. Area 1 offers the
// k = p+1 rows above the panel against the n−p columns from the panel
// on, one fewer when the two counts are equal (the draw could be left
// with the diagonal element alone); Area 2 the n−k rows below the
// panel; the panel area its nb columns, with more than nb rows below
// them in every blocked iteration; Area 3 (and any other area, as the
// draw treats it) the p finished columns, but at most (n−1)/2 of them:
// column c offers rows c+2..n−1, so a draw of count c < n/2 always
// leaves a column with a free row.
func capacity(area Area, n, nb, iter int) int {
	p := iter * nb
	k := p + 1
	switch area {
	case Area1:
		if k == n-p {
			return k - 1
		}
		return min(k, n-p)
	case Area2:
		return n - k
	case AreaPanel:
		return nb
	default:
		return min(p, (n-1)/2)
	}
}

// Check refuses a plan that cannot be carried out as stated on an n×n,
// nb-blocked run of iters blocked iterations (nb ≤ 0: the default block
// size; iters is BlockedIterations(n, nb) on the Hessenberg path): one
// whose iteration never runs, one whose explicit positions fall outside
// the matrix, and one whose area is empty at its iteration or holds
// fewer positions than Count (capacity). A kill-only plan (KillPoint
// set, no area, no positions) is checked for its iteration only. An
// accepted plan's draw always ends.
func (p Plan) Check(n, nb, iters int) error {
	if nb <= 0 {
		nb = hybrid.DefaultNB
	}
	if p.TargetIter < 0 || p.TargetIter >= iters {
		return fmt.Errorf("fault: iteration %d never runs: an n=%d, nb=%d reduction runs blocked iterations 0..%d", p.TargetIter, n, nb, iters-1)
	}
	if len(p.Positions) > 0 {
		for _, pos := range p.Positions {
			if pos.Row < 0 || pos.Row >= n || pos.Col < 0 || pos.Col >= n {
				return fmt.Errorf("fault: position (%d,%d) lies outside the %d×%d matrix", pos.Row, pos.Col, n, n)
			}
		}
		return nil
	}
	if p.KillPoint != KillNone && p.Area == 0 {
		return nil
	}
	count := max(p.Count, 1)
	switch c := capacity(p.Area, n, nb, p.TargetIter); {
	case c == 0:
		return fmt.Errorf("fault: %v holds no position at iteration %d (capacity 0)", p.Area, p.TargetIter)
	case count > c:
		return fmt.Errorf("fault: count %d exceeds the capacity of %v at iteration %d: %d position(s) in distinct rows and columns", count, p.Area, p.TargetIter, c)
	}
	return nil
}

// positions resolves a plan's concrete injection coordinates for the
// iteration at panel p (k = p+1) of an n×n matrix. It draws until it has
// Count positions; Plan.Check refuses a plan it could not complete.
func positions(plan Plan, n, p, nb int) []Pos {
	if len(plan.Positions) > 0 {
		return plan.Positions
	}
	rng := matrix.NewRNG(plan.Seed + 0x9e37)
	k := p + 1
	var out []Pos
	seenRow := map[int]bool{}
	seenCol := map[int]bool{}
	for len(out) < plan.Count {
		var pos Pos
		switch plan.Area {
		case Area1:
			// Upper trailing part: rows above the panel, columns at or
			// right of the panel.
			pos = Pos{Row: rng.Intn(k), Col: p + rng.Intn(n-p)}
		case Area2:
			// Lower trailing part.
			pos = Pos{Row: k + rng.Intn(n-k), Col: p + rng.Intn(n-p)}
		case AreaPanel:
			// The panel columns of the lower trailing part — about to be
			// transferred to the host and checkpointed.
			pos = Pos{Row: k + rng.Intn(n-k), Col: p + rng.Intn(nb)}
		default: // Area3
			// Finished Householder storage: column c < p, row ≥ c+2.
			if p == 0 {
				return nil
			}
			c := rng.Intn(p)
			if c+2 >= n {
				continue
			}
			pos = Pos{Row: c + 2 + rng.Intn(n-c-2), Col: c}
		}
		// Keep positions in distinct rows and columns (and off the
		// diagonal): the Sre/Sce comparison is blind to A(i,i) errors and
		// rectangle patterns are uncorrectable by construction.
		if pos.Row == pos.Col || seenRow[pos.Row] || seenCol[pos.Col] {
			continue
		}
		seenRow[pos.Row] = true
		seenCol[pos.Col] = true
		out = append(out, pos)
	}
	return out
}

// BeforeIteration implements ft.Hook: on the target iteration it corrupts
// the planned elements in device memory (Areas 1-2) or host memory
// (Area 3).
func (in *Injector) BeforeIteration(ctx *ft.IterCtx) {
	for _, plan := range in.plans {
		if ctx.Iter != plan.TargetIter {
			continue
		}
		if plan.KillPoint != KillNone {
			ctx.KillDevice(plan.KillDevice, string(plan.KillPoint))
			if plan.Area == 0 && len(plan.Positions) == 0 {
				continue // kill-only plan: no transient injection
			}
		}
		for i, pos := range positions(plan, ctx.N, ctx.Panel, ctx.NB) {
			in.inject(ctx, plan, pos, ctx.Iter, i)
		}
	}
}

// HybridHook adapts the injector to the baseline (non-fault-tolerant)
// reduction for the Figure 2 propagation study.
func (in *Injector) HybridHook(dev *gpu.Device) func(hybrid.IterInfo, *gpu.Matrix, *matrix.Matrix) {
	return func(info hybrid.IterInfo, dA *gpu.Matrix, host *matrix.Matrix) {
		for _, plan := range in.plans {
			if info.Iter != plan.TargetIter {
				continue
			}
			ctx := &ft.IterCtx{
				Dev: dev, DA: dA, Host: host,
				Iter: info.Iter, Panel: info.Panel, NB: info.NB, N: info.N,
			}
			for i, pos := range positions(plan, info.N, info.Panel, info.NB) {
				in.inject(ctx, plan, pos, info.Iter, i)
			}
		}
	}
}

func (in *Injector) inject(ctx *ft.IterCtx, plan Plan, pos Pos, iter, idx int) {
	// Area-3 injections hit the host-resident Householder storage when a
	// host matrix is available (the FT path); the baseline hybrid study
	// of Figure 2 passes host == nil and corrupts the device copy, which
	// holds the same stale values in that region. The IterCtx accessors
	// route H pokes to the single device or to the owning slab of the
	// multi-device pool.
	target := ft.TargetH
	if plan.Area == Area3 && ctx.Host != nil {
		target = ft.TargetQ
	}
	// Simultaneous errors get distinct magnitudes (idx-scaled): equal
	// residual values make the row/column matching genuinely ambiguous —
	// the same information-theoretic limit as the paper's rectangle
	// pattern — and real upsets virtually never coincide in magnitude.
	delta := plan.Delta * float64(1+idx)
	switch {
	case target == ft.TargetQ:
		if ctx.Mode() != gpu.Real {
			break
		}
		if plan.BitFlip {
			old := ctx.Host.At(pos.Row, pos.Col)
			ctx.Host.Set(pos.Row, pos.Col, math.Float64frombits(math.Float64bits(old)^(1<<plan.Bit)))
			delta = ctx.Host.At(pos.Row, pos.Col) - old
		} else {
			ctx.Host.Add(pos.Row, pos.Col, delta)
		}
	case plan.BitFlip:
		if d := ctx.FlipBitH(pos.Row, pos.Col, plan.Bit); ctx.Mode() == gpu.Real {
			delta = d
		}
		in.pendingH++
	default:
		ctx.PokeH(pos.Row, pos.Col, delta)
		in.pendingH++
	}
	in.Log = append(in.Log, ft.Injection{Row: pos.Row, Col: pos.Col, Delta: delta, Target: target, Iter: iter})
	ev := obs.Ev(obs.KindInjection, iter)
	ev.SimTime = ctx.SimTime()
	ev.Target = obs.TargetH
	if target == ft.TargetQ {
		ev.Target = obs.TargetQ
	}
	ev.Row, ev.Col, ev.Value = pos.Row, pos.Col, obs.Float(delta)
	in.Journal.Append(ev)
}

// ConsumePendingH implements ft.Hook.
func (in *Injector) ConsumePendingH() int {
	c := in.pendingH
	in.pendingH = 0
	return c
}

var _ ft.Hook = (*Injector)(nil)
