package ft

// Fail-stop device loss on the multi-device path (beyond-paper,
// DESIGN.md §13). The transient-error machinery of the paper assumes
// memory that still answers; a device that dies (gpu.Device.Kill) never
// answers again and takes its slabs with it. The reduction survives the
// loss by restarting: the attempt ends where the loss is noticed, and
// the whole factorization runs again from its input on the surviving
// pool devices, or on one fresh device when the pool had only one.
// Within the pool family the result does not depend on the device count,
// so the restart returns exactly the bits of a clean run, and a clean
// run pays nothing for the ability.
//
// Kills (fault.KillPoint) fire where the host next touches the pool: at
// an iteration boundary, as the panel offload begins, or between the
// right and the left update. The restarted pool starts every timeline at
// the loss instant, so a killed run's modeled time is the time lost plus
// a clean run on the survivors.
//
// One loss per run: a second loss, armed at the recovery point, fires
// as the restart begins and ends the run with ErrUncorrectable, never
// silently.

import (
	"errors"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// errDeviceLost ends an attempt at a device loss; reduceMulti restarts.
var errDeviceLost = errors.New("ft: device lost")

// fsArm registers a device kill for the current iteration at the given
// point. Out-of-range devices are ignored.
func (r *multiReducer) fsArm(d int, point string) {
	if d < 0 || d >= r.pool.K() {
		return
	}
	if r.fsKills == nil {
		r.fsKills = map[string]int{}
	}
	r.fsKills[point] = d
}

// fsKill marks device d dead and journals the loss.
func (r *multiReducer) fsKill(d int, point string, iter int) {
	dev := r.pool.Devices[d]
	dev.Kill()
	r.record(obs.KindDeviceLoss, iter, 0, point, dev.Name())
}

// fsKillAt fires an armed kill at the named point of iteration iter: the
// device dies, the loss instant is recorded, and the attempt ends with
// errDeviceLost. Returns nil when no kill is armed for the point.
func (r *multiReducer) fsKillAt(point string, iter int) error {
	d, ok := r.fsKills[point]
	if !ok {
		return nil
	}
	delete(r.fsKills, point)
	r.fsKill(d, point, iter)
	r.lossAt, r.lossIter = r.pool.Elapsed(), iter
	return errDeviceLost
}

// restart runs the reduction again from its input a after a device
// loss, on the surviving devices (one fresh device when none survives),
// with every timeline starting at the loss instant. An armed
// recovery-point kill fires first: a second loss exceeds the single-loss
// budget.
func (r *multiReducer) restart(a *matrix.Matrix) (*Result, error) {
	if d, ok := r.fsKills[killRecovery]; ok {
		delete(r.fsKills, killRecovery)
		r.fsKill(d, killRecovery, r.lossIter)
		return r.res, fmt.Errorf("%w: device %s lost as the restart began (a restart covers one loss)",
			ErrUncorrectable, r.pool.Devices[d].Name())
	}
	var survivors []*gpu.Device
	for _, dev := range r.pool.Devices {
		if !dev.Dead() {
			survivors = append(survivors, dev)
		}
	}
	if len(survivors) == 0 {
		dev := gpu.NewIndexed(r.pool.Params, r.pool.Mode, r.pool.K())
		if r.pool.Devices[0].Tracing() {
			dev.EnableTrace()
		}
		survivors = []*gpu.Device{dev}
	}
	r.record(obs.KindReconstruction, r.lossIter, 0, fmt.Sprintf("restart on %d device(s)", len(survivors)), survivors[0].Name())
	opt := r.opt
	opt.Devices = survivors
	opt.startAt = r.lossAt
	return r.rerun(a, opt)
}

// Kill-point names, mirrored from fault.KillPoint (ft cannot import
// fault — fault imports ft for the Hook interface).
const (
	killBoundary = "boundary"
	killPanel    = "panel"
	killUpdate   = "update"
	killRecovery = "recovery"
)
