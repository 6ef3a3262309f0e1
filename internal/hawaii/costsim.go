// Package hawaii implements the HAWAII⁺ intermittent inference engine of
// the paper (Section III-D): the job-counter-based progress preservation
// and recovery scheme of HAWAII [10] extended with BSR sparse weights,
// accelerated vector-matrix multiplication, tile input transformation and
// VM-filling tile sizes.
//
// The package offers two coordinated views of the engine:
//
//   - CostSim (this file): an event-driven simulator that walks the
//     accelerator-op schedule of a model and integrates latency and energy
//     against the device profile and the harvesting supply, including
//     power failures, recharge dead time and progress recovery. It scales
//     to full models and generates the paper's Figure 2 and Figure 5.
//
//   - Engine (engine.go): a functional simulator that really executes
//     Q15 inference job by job against simulated VM/NVM state with
//     injected power failures, demonstrating that preservation/recovery
//     produces bit-identical results to an uninterrupted run.
package hawaii

import (
	"fmt"

	"iprune/internal/device"
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
	fillSchedule(ops, spec.Index, &it, mode, cfg)
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
	for i := range its {
		n += fillSchedule(ops[n:], specs[i].Index, &its[i], mode, cfg)
	}
	return ops
}

// fillSchedule writes the cursor's ops, tagged with the layer index, into
// ops and returns how many it wrote.
//
//iprune:hotpath
//iprune:allow-budget host-side schedule construction; it plans power-cycle regions but never executes inside one
func fillSchedule(ops []Op, layer int, it *tile.OpIter, mode tile.Mode, cfg tile.Config) int {
	n := 0
	for it.Next() {
		b := it.Bytes(mode, cfg)
		ops[n] = Op{
			Layer: layer, MACs: it.MACs(), Jobs: it.Jobs(),
			WeightRead: b.Weight, InputRead: b.Input,
			OutWrite: b.Output, IndWrite: b.Indicator, RefetchBytes: b.Refetch,
		}
		n++
	}
	return n
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

// CostSim evaluates op schedules against a device profile.
type CostSim struct {
	Dev device.Profile
	Cfg tile.Config
	// Trace receives op, layer and recovery events from every Run; the
	// power simulator's own events (power-on/off, failure, charge) join
	// the same stream. Nil disables tracing at the cost of one branch
	// per op.
	Trace obs.Tracer
}

// NewCostSim constructs a simulator with the default MSP430 profile.
func NewCostSim(cfg tile.Config) *CostSim {
	return &CostSim{Dev: device.MSP430FR5994(), Cfg: cfg}
}

// opCost returns the latency, energy and breakdown attribution of one op.
// Reads happen first (DMA), then the accelerator runs while the previous
// outputs stream out — compute and preservation are pipelined (paper
// Section III-B), so the exposed time is max(compute, write). The pricing
// itself lives in energy.Model.OpCost — the one table the regionbudget
// static analyzer also reads — so the simulator and the analyzer can
// never disagree about what an op costs; only the Breakdown attribution
// (which pipeline stage the exposed time is charged to) is local.
//
//iprune:allow-float analytic cost model integrates seconds and joules, not device numerics
func (cs *CostSim) opCost(op *Op, mode tile.Mode) (t, e float64, b Breakdown) {
	d := &cs.Dev
	readBytes := op.WeightRead + op.InputRead
	overlapped := mode == tile.Intermittent && !op.SerialWrite
	t, e = energy.Model{Dev: cs.Dev}.OpCost(op.MACs, readBytes, op.OutWrite+op.IndWrite, overlapped)
	readT := d.TransferTime(readBytes, false)
	compT := d.ComputeTime(op.MACs)
	var writeT float64
	if op.OutWrite+op.IndWrite > 0 {
		writeT = d.TransferTime(op.OutWrite+op.IndWrite, true)
	}
	b.ReadTime = readT
	b.OverheadTime = d.OpOverheadTime
	if mode == tile.Intermittent && op.SerialWrite {
		b.ComputeTime = compT
		b.WriteTime = writeT
	} else if mode == tile.Intermittent {
		if writeT >= compT {
			b.WriteTime = writeT
			b.ComputeTime = 0 // fully hidden under the write stream
		} else {
			b.ComputeTime = compT
			b.WriteTime = 0
		}
	} else {
		b.ComputeTime = compT
		b.WriteTime = writeT
	}
	return t, e, b
}

// recoveryCost returns the time and energy of progress recovery after a
// failure interrupting op: reboot, progress-indicator read, the two extra
// BSR index reads to relocate the nonzero block (Section III-D), and the
// re-fetch of the interrupted op's tile data.
//
//iprune:allow-float analytic cost model integrates seconds and joules, not device numerics
func (cs *CostSim) recoveryCost(op *Op) (t, e float64) {
	return energy.Model{Dev: cs.Dev}.RecoveryCost(recoveryIndexBytes(cs.Cfg), op.RefetchBytes)
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
func (cs *CostSim) Run(ops []Op, mode tile.Mode, sup power.Supply, seed int64) (Result, error) {
	return cs.RunWithSim(ops, mode, power.NewSim(power.DefaultBuffer(), sup, seed))
}

// RunWithSim simulates the schedule against a caller-provided power
// simulator — the hook for trace-driven supplies (power.NewTraceSim) and
// custom buffers.
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
	var res Result
	// The trace clock is res.Latency itself: every event is stamped with
	// the simulated wall-clock at which it begins, and layer-end events
	// carry the layer's inclusive span and energy delta so per-layer
	// sums reproduce the aggregate totals exactly.
	curLayer := -1
	var layerT0, layerE0 float64
	endLayer := func() {
		if traced && curLayer >= 0 {
			tr.Emit(obs.Event{
				Kind: obs.KindLayerEnd, Time: res.Latency,
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
				tr.Emit(obs.Event{Kind: obs.KindLayerStart, Time: res.Latency, Layer: curLayer, Op: -1})
			}
		}
		t, e, b := cs.opCost(op, mode)
		const maxRetries = 1000
		retries := 0
		for {
			if traced {
				tr.Emit(obs.Event{Kind: obs.KindOpStart, Time: res.Latency, Layer: curLayer, Op: int64(i)})
			}
			if !sim.Consume(e, t) {
				break // op committed
			}
			// Power failed during the op: its time is spent but the work
			// is lost; charge the dark period, then the recovery path.
			res.ActiveTime += t
			res.Latency += t
			off := sim.Recharge()
			res.OffTime += off
			res.Latency += off
			rt, re := cs.recoveryCost(op)
			for sim.Consume(re, rt) {
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
						Energy: re, Buffer: sim.Buffer.UsableEnergy(),
					}
				}
			}
			if traced {
				tr.Emit(obs.Event{
					Kind: obs.KindRecovery, Time: res.Latency, Dur: rt,
					Layer: curLayer, Op: int64(i), Energy: re,
					Read: op.RefetchBytes,
				})
			}
			res.ActiveTime += rt
			res.Latency += rt
			res.Break.RecoveryTime += rt
			retries++
			if retries > maxRetries {
				res.Energy = sim.EnergyUsed
				res.Failures = sim.Failures
				return res, &ErrOpExceedsBuffer{
					Op: i, Supply: sup.Name,
					Energy: e, Buffer: sim.Buffer.UsableEnergy(),
				}
			}
		}
		if traced {
			tr.Emit(obs.Event{
				Kind: obs.KindOpCommit, Time: res.Latency, Dur: t,
				Layer: curLayer, Op: int64(i), Energy: e,
				Read: op.WeightRead + op.InputRead,
			})
			if wb := op.OutWrite + op.IndWrite; wb > 0 {
				tr.Emit(obs.Event{
					Kind: obs.KindPreserve, Time: res.Latency + t,
					Layer: curLayer, Op: int64(i), Write: wb,
				})
			}
		}
		res.ActiveTime += t
		res.Latency += t
		res.Ops++
		res.Jobs += op.Jobs
		res.Break.ReadTime += b.ReadTime
		res.Break.WriteTime += b.WriteTime
		res.Break.ComputeTime += b.ComputeTime
		res.Break.OverheadTime += b.OverheadTime
	}
	endLayer()
	if traced && len(ops) > 0 {
		tr.Emit(obs.Event{Kind: obs.KindPowerOff, Time: res.Latency, Layer: -1, Op: -1})
	}
	res.Energy = sim.EnergyUsed
	res.Failures = sim.Failures
	return res, nil
}

// RunNetwork is a convenience wrapper: schedule + Run from a network's
// current masks.
func (cs *CostSim) RunNetwork(net *nn.Network, specs []tile.LayerSpec, mode tile.Mode, sup power.Supply, seed int64) (Result, error) {
	return cs.Run(ScheduleFromNetwork(net, specs, mode, cs.Cfg), mode, sup, seed)
}
