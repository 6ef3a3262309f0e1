package hawaii

import (
	"iprune/internal/energy"
	"iprune/internal/obs"
	"iprune/internal/power"
	"iprune/internal/tile"
)

// TracePricer implements obs.Pricer over the shared energy cost model:
// it converts the functional engine's trace events into the same
// simulated seconds and joules CostSim stamps, so an Engine run and a
// CostSim run of the same schedule overlay on one time axis. Op commits
// are priced exactly like the cost simulator prices schedule ops
// (energy.Model.OpCost with the overlapped preservation write of
// intermittent mode), recovery re-execution like its recovery path, and
// stage-level preservation as serialized NVM transactions. The obs
// package cannot host this (it imports nothing; energy sits above it),
// which is why the calibration lives with the engine.
//
// Failed attempts are the one deliberate asymmetry: the functional
// engine observes only committed progress, so the sunk time and energy
// of an attempt lost to an injected failure are not re-created on the
// calibrated axis — the trace prices committed work, recovery and
// recharge dead-time.
type TracePricer struct {
	M   energy.Model
	Cfg tile.Config
	// HarvestW is the harvesting supply's power; a charge event is
	// priced as one full buffer recharge at this power. <= 0 (a
	// continuous supply) makes recharge free and instantaneous.
	HarvestW float64
	// Jitter mirrors the supply's harvest jitter, kept for reporting —
	// the deterministic pricing itself uses the nominal power.
	Jitter float64
}

// NewTracePricer calibrates against the default model (the paper's
// MSP430FR5994 + 100 µF buffer) and the given supply.
func NewTracePricer(sup power.Supply, cfg tile.Config) *TracePricer {
	p := &TracePricer{M: energy.Default(), Cfg: cfg, Jitter: sup.Jitter}
	if !sup.Continuous {
		p.HarvestW = sup.Power
	}
	return p
}

// Price implements obs.Pricer.
//
//iprune:allow-float analytic cost model integrates seconds and joules, not device numerics
func (p *TracePricer) Price(kind obs.Kind, macs, read, write int64) (dt, e float64) {
	switch kind {
	case obs.KindOpCommit:
		// One accelerator op: reads stream in, the accelerator runs,
		// the preservation write overlaps compute (intermittent mode).
		return p.M.OpCost(macs, read, write, true)
	case obs.KindPreserve:
		// Stage-level preservation (input transform, CPU-stage commit,
		// OFM finalize): serialized NVM read + write transactions. The
		// op-level preserve never reaches here — its write is folded
		// into the op span by the EnergyClock.
		if read > 0 {
			dt += p.M.Dev.TransferTime(read, false)
			e += p.M.NVMReadJ(read)
		}
		if write > 0 {
			dt += p.M.Dev.TransferTime(write, true)
			e += p.M.NVMWriteJ(write)
		}
		return dt, e
	case obs.KindReExec:
		// Recovery: reboot, progress-indicator + BSR index read, and
		// the interrupted op's tile re-fetch (read carries the bytes).
		return p.M.RecoveryCost(recoveryIndexBytes(p.Cfg), read)
	case obs.KindCharge:
		// Recharge dead-time: one full buffer at the harvest power.
		if p.HarvestW <= 0 {
			return 0, 0
		}
		return p.M.BufferJ / p.HarvestW, 0
	}
	return 0, 0
}
