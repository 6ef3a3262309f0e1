// Package hawaii implements the HAWAII⁺ intermittent inference engine of
// the paper (Section III-D): the job-counter-based progress preservation
// and recovery scheme of HAWAII [10] extended with BSR sparse weights,
// accelerated vector-matrix multiplication, tile input transformation and
// VM-filling tile sizes.
//
// The package offers two coordinated views of the engine:
//
//   - CostSim (this file): an event-driven simulator that walks the
//     accelerator-op schedule of a model, priced against the device
//     profile when it is built, and integrates latency and energy against
//     the harvesting supply, including power failures, recharge dead time
//     and progress recovery. It scales to full models and generates the
//     paper's Figure 2 and Figure 5.
//
//   - Engine (engine.go): a functional simulator that really executes
//     Q15 inference job by job against simulated VM/NVM state with
//     injected power failures, demonstrating that preservation/recovery
//     produces bit-identical results to an uninterrupted run.
package hawaii

import (
	"fmt"

	"iprune/internal/energy"
	"iprune/internal/nn"
	"iprune/internal/obs"
	"iprune/internal/power"
	"iprune/internal/tile"
)

// Op is one accelerator operation in the schedule: a TM×TK weight block
// times a TK×TN input tile producing TM×TN jobs (outputs).
type Op struct {
	Layer      int // spec index
	MACs       int64
	Jobs       int64 // outputs produced
	WeightRead int64 // bytes
	// InputRead is the amortized input-tile traffic: the kk×tn tile is
	// fetched once per k-panel and charged to the panel's first op.
	InputRead int64
	OutWrite  int64 // bytes (intermittent: per op; continuous: OFM share)
	IndWrite  int64 // bytes
	// RefetchBytes is what progress recovery must re-read if power fails
	// during this op: its weight block, the full input tile, and the
	// preserved partial outputs it accumulates onto.
	RefetchBytes int64
	// SerialWrite marks ops whose output write cannot overlap compute
	// (task-level preservation flushes results only at task end).
	SerialWrite bool

	// Time and Energy price one attempt of the op, and Break attributes
	// Time to activities. RecoveryTime and RecoveryEnergy price the
	// progress recovery after a failure during it. The schedule
	// builders fill them in (Op.price), so a run only integrates them.
	Time, Energy                 float64
	Break                        Breakdown
	RecoveryTime, RecoveryEnergy float64
}

// BuildSchedule expands a layer spec and mask into the ordered op list the
// engine executes: one Op per step of the layer's tile.Ops cursor, in its
// input-stationary order (output-column tiles, then k-blocks, then block
// rows). BSR skips pruned blocks. The analytic counters of
// tile.CountLayer fold the same cursor, so the criterion and the executed
// schedule cannot drift apart.
func BuildSchedule(spec *tile.LayerSpec, mask *nn.BlockMask, mode tile.Mode, cfg tile.Config) []Op {
	it := tile.Ops(spec, mask)
	ops := make([]Op, it.Len())
	m := energy.Default()
	fillSchedule(ops, spec.Index, &it, mode, cfg, &m)
	return ops
}

// ScheduleFromNetwork builds the whole-model op schedule from the
// network's current masks.
func ScheduleFromNetwork(net *nn.Network, specs []tile.LayerSpec, mode tile.Mode, cfg tile.Config) []Op {
	prunables := net.Prunables()
	its := make([]tile.OpIter, len(specs))
	n := 0
	for i := range specs {
		its[i] = tile.Ops(&specs[i], prunables[i].Mask())
		n += its[i].Len()
	}
	ops := make([]Op, n)
	n = 0
	m := energy.Default()
	for i := range its {
		n += fillSchedule(ops[n:], specs[i].Index, &its[i], mode, cfg, &m)
	}
	return ops
}

// fillSchedule writes the cursor's ops, tagged with the layer index and
// priced by m for mode, into ops, which must be zeroed, and returns how
// many it wrote. It sets each field in place: building a whole Op and
// copying it in cost the schedule build more than the pricing.
//
//iprune:hotpath
//iprune:allow-budget host-side schedule construction; it plans power-cycle regions but never executes inside one
func fillSchedule(ops []Op, layer int, it *tile.OpIter, mode tile.Mode, cfg tile.Config, m *energy.Model) int {
	idx := recoveryIndexBytes(cfg)
	n := 0
	for it.Next() {
		b := it.Bytes(mode, cfg)
		op := &ops[n]
		op.Layer, op.MACs, op.Jobs = layer, it.MACs(), it.Jobs()
		op.WeightRead, op.InputRead = b.Weight, b.Input
		op.OutWrite, op.IndWrite, op.RefetchBytes = b.Output, b.Indicator, b.Refetch
		op.price(m, mode, idx)
		n++
	}
	return n
}

// priceOps prices every op of a schedule built for mode and cfg against
// the default platform (energy.Default), as fillSchedule does, and
// returns the schedule.
func priceOps(ops []Op, mode tile.Mode, cfg tile.Config) []Op {
	m := energy.Default()
	idx := recoveryIndexBytes(cfg)
	for i := range ops {
		ops[i].price(&m, mode, idx)
	}
	return ops
}

// Breakdown attributes active time to activities (paper Figure 2).
type Breakdown struct {
	ReadTime float64 // NVM reads (weights, inputs, partials)
	// WriteTime and ComputeTime attribute each op's exposed pipeline
	// stage: whichever of the write stream and the accelerator dominates
	// is charged, the other is hidden under it.
	WriteTime    float64
	ComputeTime  float64
	OverheadTime float64 // op issue + DMA/SPI invocation overheads
	RecoveryTime float64 // reboot + re-fetch + re-executed work after failures
}

// Result is the outcome of one simulated end-to-end inference.
type Result struct {
	Latency    float64 // wall-clock seconds including charging dead time
	ActiveTime float64 // powered-on seconds
	OffTime    float64 // charging seconds
	Energy     float64 // joules drawn by the device
	Failures   int     // power failures experienced
	Ops        int64   // accelerator operations completed
	Jobs       int64   // accelerator outputs produced (committed once)
	Break      Breakdown
}

// CostSim runs priced op schedules against a power simulator.
type CostSim struct {
	Cfg tile.Config
	// Trace receives op, layer and recovery events from every Run; the
	// power simulator's own events (power-on/off, failure, charge) join
	// the same stream. Nil disables tracing at the cost of one branch
	// per op.
	Trace obs.Tracer
}

// NewCostSim constructs a simulator for schedules built with cfg.
func NewCostSim(cfg tile.Config) *CostSim {
	return &CostSim{Cfg: cfg}
}

// price fills in the op's latency, energy and breakdown attribution, and
// the cost of progress recovery after a failure during it, from m.
// Reads happen first (DMA), then the accelerator runs while the previous
// outputs stream out — compute and preservation are pipelined (paper
// Section III-B), so the exposed time is max(compute, write). The pricing
// itself lives in energy.Model.OpCost and RecoveryCost — the one table
// the regionbudget static analyzer also reads — so the simulator and the
// analyzer can never disagree about what an op costs; only the Breakdown
// attribution (which pipeline stage the exposed time is charged to) is
// local. Recovery is reboot, progress-indicator read, the two extra BSR
// index reads to relocate the nonzero block (Section III-D) — idxBytes in
// all — and the re-fetch of the interrupted op's tile data.
//
//iprune:allow-float analytic cost model integrates seconds and joules, not device numerics
func (op *Op) price(m *energy.Model, mode tile.Mode, idxBytes int64) {
	d := &m.Dev
	readBytes := op.WeightRead + op.InputRead
	writeBytes := op.OutWrite + op.IndWrite
	overlapped := mode == tile.Intermittent && !op.SerialWrite
	op.Time, op.Energy = m.OpCost(op.MACs, readBytes, writeBytes, overlapped)
	compT := d.ComputeTime(op.MACs)
	var writeT float64
	if writeBytes > 0 {
		writeT = d.TransferTime(writeBytes, true)
	}
	op.Break = Breakdown{ReadTime: d.TransferTime(readBytes, false), OverheadTime: d.OpOverheadTime}
	switch {
	case overlapped && writeT >= compT:
		op.Break.WriteTime = writeT // compute fully hidden under the write stream
	case overlapped:
		op.Break.ComputeTime = compT
	default:
		op.Break.ComputeTime, op.Break.WriteTime = compT, writeT
	}
	op.RecoveryTime, op.RecoveryEnergy = m.RecoveryCost(idxBytes, op.RefetchBytes)
}

// recoveryIndexBytes is what recovery reads to find where to resume: the
// progress indicator plus the two BSR index entries (row pointer and
// column index, 2 bytes each) that relocate the interrupted op's block.
func recoveryIndexBytes(cfg tile.Config) int64 { return int64(cfg.IndicatorBytes) + 2*2 }

// ErrOpExceedsBuffer reports that a single op (or its recovery path)
// draws more energy than one full buffer charge supplies, so the
// schedule can never make progress under the given supply: the device
// would brown out at the same point on every retry. The regionbudget
// static analyzer exists to catch the source-level analogue of this
// condition before a deployment ever hits it at runtime.
type ErrOpExceedsBuffer struct {
	Op       int     // schedule index of the stuck op
	Supply   string  // supply name
	Recovery bool    // true if the recovery path, not the op itself, is stuck
	Energy   float64 // joules the stuck step needs in one charge
	Buffer   float64 // usable joules per charge
}

func (e *ErrOpExceedsBuffer) Error() string {
	what := "op"
	if e.Recovery {
		what = "recovery for op"
	}
	return fmt.Sprintf("hawaii: %s %d cannot complete under %s supply: needs %s in one power cycle but the buffer supplies %s",
		what, e.Op, e.Supply, energy.FormatJ(e.Energy), energy.FormatJ(e.Buffer))
}

// Run simulates one end-to-end inference of the schedule under the given
// execution mode and supply. seed controls harvest jitter. A non-nil
// error is *ErrOpExceedsBuffer: the schedule contains an op that can
// never fit one buffer charge, and the partial Result covers the work
// committed before the stuck op.
//
// Run owns its power simulator, so a traced run that completes ends with
// the device's power-off.
func (cs *CostSim) Run(ops []Op, mode tile.Mode, sup power.Supply, seed int64) (Result, error) {
	res, err := cs.RunWithSim(ops, mode, power.NewSim(power.DefaultBuffer(), sup, seed))
	if err == nil && len(ops) > 0 && cs.Trace != nil && cs.Trace.Enabled() {
		cs.Trace.Emit(obs.Event{Kind: obs.KindPowerOff, Time: res.Latency, Layer: -1, Op: -1})
	}
	return res, err
}

// RunWithSim simulates the schedule against a caller-provided power
// simulator — the hook for trace-driven supplies (power.NewTraceSim),
// custom buffers and runs that continue one simulator across several
// inferences. The schedule's ops carry their prices, built for mode;
// the run integrates them against the supply. Events are stamped on the
// simulator's clock (OnTime+OffTime, read at run start: 0 for a fresh
// simulator), so a simulator shared by consecutive runs keeps one
// timeline. The device stays powered when the run ends: whoever owns
// the simulator emits the power-off once it is done with it (Run does).
//
//iprune:allow-float analytic cost model integrates seconds and joules, not device numerics
func (cs *CostSim) RunWithSim(ops []Op, mode tile.Mode, sim *power.Sim) (Result, error) {
	sup := sim.Supply
	if mode == tile.Continuous && !sup.Continuous {
		panic("hawaii: the conventional data-reuse flow cannot survive power failures (Section II-B); use Intermittent mode with a harvested supply")
	}
	var tr obs.Tracer = obs.Nop{}
	if cs.Trace != nil {
		tr = cs.Trace
	}
	if sim.Trace == nil {
		sim.Trace = tr
	}
	traced := tr.Enabled()
	t0 := sim.OnTime + sim.OffTime
	var res Result
	// The trace clock is t0 plus res.Latency: every event is stamped with
	// the simulated wall-clock at which it begins, and layer-end events
	// carry the layer's inclusive span and energy delta so per-layer
	// sums reproduce the aggregate totals exactly.
	curLayer := -1
	var layerT0, layerE0 float64
	endLayer := func() {
		if traced && curLayer >= 0 {
			tr.Emit(obs.Event{
				Kind: obs.KindLayerEnd, Time: res.Latency + t0,
				Dur: res.Latency - layerT0, Layer: curLayer, Op: -1,
				Energy: sim.EnergyUsed - layerE0,
			})
		}
	}
	for i := range ops {
		op := &ops[i]
		if op.Layer != curLayer {
			endLayer()
			curLayer = op.Layer
			layerT0, layerE0 = res.Latency, sim.EnergyUsed
			if traced {
				tr.Emit(obs.Event{Kind: obs.KindLayerStart, Time: res.Latency + t0, Layer: curLayer, Op: -1})
			}
		}
		const maxRetries = 1000
		retries := 0
		for {
			if traced {
				tr.Emit(obs.Event{Kind: obs.KindOpStart, Time: res.Latency + t0, Layer: curLayer, Op: int64(i)})
			}
			if !sim.Consume(op.Energy, op.Time) {
				break // op committed
			}
			// Power failed during the op: its time is spent but the work
			// is lost; charge the dark period, then the recovery path.
			res.ActiveTime += op.Time
			res.Latency += op.Time
			off := sim.Recharge()
			res.OffTime += off
			res.Latency += off
			for sim.Consume(op.RecoveryEnergy, op.RecoveryTime) {
				// Failing during recovery itself: recharge and retry the
				// recovery (possible only under extreme profiles).
				off = sim.Recharge()
				res.OffTime += off
				res.Latency += off
				retries++
				if retries > maxRetries {
					res.Energy = sim.EnergyUsed
					res.Failures = sim.Failures
					return res, &ErrOpExceedsBuffer{
						Op: i, Supply: sup.Name, Recovery: true,
						Energy: op.RecoveryEnergy, Buffer: sim.Buffer.UsableEnergy(),
					}
				}
			}
			if traced {
				tr.Emit(obs.Event{
					Kind: obs.KindRecovery, Time: res.Latency + t0, Dur: op.RecoveryTime,
					Layer: curLayer, Op: int64(i), Energy: op.RecoveryEnergy,
					Read: op.RefetchBytes,
				})
			}
			res.ActiveTime += op.RecoveryTime
			res.Latency += op.RecoveryTime
			res.Break.RecoveryTime += op.RecoveryTime
			retries++
			if retries > maxRetries {
				res.Energy = sim.EnergyUsed
				res.Failures = sim.Failures
				return res, &ErrOpExceedsBuffer{
					Op: i, Supply: sup.Name,
					Energy: op.Energy, Buffer: sim.Buffer.UsableEnergy(),
				}
			}
		}
		if traced {
			tr.Emit(obs.Event{
				Kind: obs.KindOpCommit, Time: res.Latency + t0, Dur: op.Time,
				Layer: curLayer, Op: int64(i), Energy: op.Energy,
				Read: op.WeightRead + op.InputRead,
			})
			if wb := op.OutWrite + op.IndWrite; wb > 0 {
				tr.Emit(obs.Event{
					Kind: obs.KindPreserve, Time: res.Latency + op.Time + t0,
					Layer: curLayer, Op: int64(i), Write: wb,
				})
			}
		}
		res.ActiveTime += op.Time
		res.Latency += op.Time
		res.Ops++
		res.Jobs += op.Jobs
		res.Break.ReadTime += op.Break.ReadTime
		res.Break.WriteTime += op.Break.WriteTime
		res.Break.ComputeTime += op.Break.ComputeTime
		res.Break.OverheadTime += op.Break.OverheadTime
	}
	endLayer()
	res.Energy = sim.EnergyUsed
	res.Failures = sim.Failures
	return res, nil
}

// RunNetwork is a convenience wrapper: schedule + Run from a network's
// current masks.
func (cs *CostSim) RunNetwork(net *nn.Network, specs []tile.LayerSpec, mode tile.Mode, sup power.Supply, seed int64) (Result, error) {
	return cs.Run(ScheduleFromNetwork(net, specs, mode, cs.Cfg), mode, sup, seed)
}
