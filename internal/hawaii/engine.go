package hawaii

import (
	"fmt"

	"iprune/internal/fixed"
	"iprune/internal/nn"
	"iprune/internal/obs"
	"iprune/internal/quant"
	"iprune/internal/tensor"
	"iprune/internal/tile"
)

// FailureInjector decides when simulated power fails during functional
// execution. It is consulted at every preservation boundary; returning
// true wipes the volatile state and forces progress recovery.
type FailureInjector interface {
	Fail() bool
}

// NoFailures never fails.
type NoFailures struct{}

// Fail implements FailureInjector.
func (NoFailures) Fail() bool { return false }

// EveryN fails at every N-th preservation boundary.
type EveryN struct {
	N     int64
	count int64
}

// Fail implements FailureInjector.
func (f *EveryN) Fail() bool {
	if f.N <= 0 {
		return false
	}
	f.count++
	return f.count%f.N == 0
}

// ExecStats reports what one functional inference did.
type ExecStats struct {
	Ops           int64 // accelerator ops committed
	Jobs          int64 // accelerator outputs committed
	Failures      int64 // injected power failures
	ReExecOps     int64 // ops re-executed after failures
	OpReadBytes   int64 // NVM reads by ops (weights, inputs, partials)
	OpWriteBytes  int64 // NVM writes by ops (outputs + indicators)
	AuxWriteBytes int64 // engine-internal writes (input transform, OFM finalize)
	AuxReadBytes  int64 // engine-internal reads (finalize, CPU stages)
}

// InferResult is the outcome of a functional inference.
type InferResult struct {
	Logits []float32
	Pred   int
	Stats  ExecStats
}

// Engine functionally executes a deployed model with progress
// preservation and recovery, mirroring HAWAII⁺: every accelerator op's
// outputs go straight to NVM together with a job-counter progress
// indicator; on power failure only the interrupted op is re-executed.
//
// Partial sums ping-pong between two NVM buffers indexed by the parity of
// the op's position along the reduction, so an op interrupted between its
// data write and its counter commit re-executes idempotently — it reads
// the previous parity's buffer, which the failed attempt never touched.
type Engine struct {
	Net   *nn.Network
	Specs []tile.LayerSpec
	Cfg   tile.Config
	Model *quant.Model

	// Trace receives the functional execution events (op attempts and
	// commits, preservation writes, injected failures, recovery
	// re-execution, layer boundaries). Nil disables tracing; emission is
	// guarded so the disabled path allocates nothing per op.
	Trace obs.Tracer

	// Price calibrates the trace timeline: nil stamps events in
	// abstract preservation steps (the engine itself has no notion of
	// seconds), while a Pricer — NewTracePricer over the shared energy
	// model — stamps simulated seconds and joules, putting engine
	// traces on the same axis as CostSim traces of the same schedule.
	// Pricing only shapes observation; execution is bit-identical
	// either way.
	Price obs.Pricer

	inShift   int
	outShifts []int // per prunable layer

	clk obs.EnergyClock
	nvm nvmState
}

// nvmState is the persistent store: everything here survives failures.
// It models the FRAM; every store must come from a function marked
// //iprune:nvm-api so preservation accounting stays sound.
//
//iprune:nvm
type nvmState struct {
	acts      map[int][]fixed.Q15 // committed activation after net layer i
	actShifts map[int]int
	stage     int         // first uncommitted net-layer index
	txDone    bool        // input transform of the current stage committed
	col       []fixed.Q15 // transformed (im2col) input of current stage
	opCounter int64       // committed ops of the current stage
	partial   [2][]fixed.Q15
}

// The commit primitives below are the engine's only NVM write sites.
// Each models one atomic preservation point (on the device: a bounded
// FRAM store sequence completed within the energy budget of a single
// capacitor charge). They are marked //iprune:preserve: the warhazard
// analyzer treats a call as ending the current WAR interval and exempts
// their bodies, which by nature read-modify-write the store.

// resetNVM reinitializes the persistent store for a fresh inference and
// commits the quantized input as the layer -1 activation.
//
//iprune:nvm-api
//iprune:preserve
func (e *Engine) resetNVM(in []fixed.Q15) {
	e.nvm = nvmState{acts: map[int][]fixed.Q15{}, actShifts: map[int]int{}}
	e.nvm.acts[-1] = in
	e.nvm.actShifts[-1] = e.inShift
}

// commitAct atomically publishes a stage's output activation — the
// preservation point that ends a CPU stage or a finalize interval.
//
//iprune:nvm-api
//iprune:preserve
func (e *Engine) commitAct(li int, act []fixed.Q15, shift int) {
	e.nvm.acts[li] = act
	e.nvm.actShifts[li] = shift
}

// commitStage advances the committed stage cursor and resets the
// per-stage NVM cursors for the next one.
//
//iprune:nvm-api
//iprune:preserve
func (e *Engine) commitStage() {
	e.nvm.stage++
	e.nvm.opCounter = 0
	e.nvm.txDone = false
}

// commitTransform publishes the transformed (im2col) GEMM operand and
// sizes the ping-pong partial buffers for a fresh stage entry.
//
//iprune:nvm-api
//iprune:preserve
func (e *Engine) commitTransform(col []fixed.Q15, mn int) {
	e.nvm.col = col
	e.nvm.txDone = true
	e.nvm.partial[0] = make([]fixed.Q15, mn)
	e.nvm.partial[1] = make([]fixed.Q15, mn)
}

// commitOp publishes the job counter after an op's data write — the
// HAWAII job-counter preservation step.
//
//iprune:nvm-api
//iprune:preserve
func (e *Engine) commitOp(ord int64) {
	e.nvm.opCounter = ord + 1
}

// NewEngine deploys the network (BSR + Q15) and prepares the engine.
// Output scale shifts default to 2 everywhere; run Calibrate with a few
// samples to fit them to the activation ranges.
func NewEngine(net *nn.Network, specs []tile.LayerSpec, cfg tile.Config) (*Engine, error) {
	model, err := quant.Deploy(net, specs)
	if err != nil {
		return nil, err
	}
	e := &Engine{Net: net, Specs: specs, Cfg: cfg, Model: model}
	e.outShifts = make([]int, len(specs))
	for i := range e.outShifts {
		e.outShifts[i] = 2
	}
	return e, nil
}

// Calibrate runs the float network over the samples and sets each
// prunable layer's output shift (and the input shift) from the observed
// activation ranges, the standard post-training calibration step.
//
//iprune:allow-float post-training calibration runs the float reference network
func (e *Engine) Calibrate(samples []nn.Sample) {
	maxIn := 0.0
	maxOut := make([]float64, len(e.Specs))
	for _, s := range samples {
		for _, v := range s.X.Data {
			if a := abs64(float64(v)); a > maxIn {
				maxIn = a
			}
		}
		x := s.X
		pi := 0
		for _, l := range e.Net.Layers {
			x = l.Forward(x)
			if _, ok := l.(nn.Prunable); ok {
				for _, v := range x.Data {
					if a := abs64(float64(v)); a > maxOut[pi] {
						maxOut[pi] = a
					}
				}
				pi++
			}
		}
	}
	e.inShift = shiftFor(maxIn)
	for i, m := range maxOut {
		e.outShifts[i] = shiftFor(m)
	}
}

//iprune:allow-float calibration helper
func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

//iprune:allow-float calibration helper
func shiftFor(maxAbs float64) int {
	s := 0
	for maxAbs >= 1.0 {
		maxAbs /= 2
		s++
	}
	return s
}

// rescaleQ converts a Q15 value from one power-of-two scale to another
// with rounding and saturation.
func rescaleQ(q fixed.Q15, from, to int) fixed.Q15 {
	if from == to {
		return q
	}
	if from > to {
		v := int64(q) << uint(from-to)
		if v > fixed.One {
			return fixed.Q15(fixed.One)
		}
		if v < fixed.MinVal {
			return fixed.Q15(fixed.MinVal)
		}
		return fixed.Q15(v)
	}
	sh := uint(to - from)
	v := int64(q)
	v += 1 << (sh - 1)
	return fixed.Q15(v >> sh)
}

// Infer executes one sample. The injector is consulted at every
// preservation boundary; the run completes regardless of failures, and
// the result is bit-identical to a failure-free run. Every NVM store is
// routed through one of the //iprune:preserve commit primitives below,
// so the write surface the warhazard analyzer reasons about is exactly
// the set of named preservation points.
func (e *Engine) Infer(x *tensor.Tensor, inj FailureInjector) (*InferResult, error) {
	if inj == nil {
		inj = NoFailures{}
	}
	// Quantize the input "sensor reading" into NVM.
	in := make([]fixed.Q15, x.Len())
	scale := pow2(-e.inShift)
	for i, v := range x.Data {
		in[i] = fixed.FromFloat(float64(v) * scale) //iprune:allow-float sensor-reading quantization boundary
	}
	e.resetNVM(in)
	var stats ExecStats

	e.clk = obs.EnergyClock{T: e.Trace, P: e.Price}
	e.clk.Emit(obs.KindPowerOn, -1, -1, 0, 0, 0)
	prunables := e.Net.Prunables()
	pi := 0 // prunable index of the current stage (advances with stages)
	resuming := false
	for e.nvm.stage < len(e.Net.Layers) {
		li := e.nvm.stage
		layer := e.Net.Layers[li]
		if resuming {
			// Reboot after the injected failure: the buffer recharges
			// (dead-time on the calibrated timeline), then recovery
			// re-enters the interrupted stage back on power.
			e.clk.Emit(obs.KindCharge, li, -1, 0, 0, 0)
			e.clk.Emit(obs.KindPowerOn, li, -1, 0, 0, 0)
		} else {
			e.clk.Emit(obs.KindLayerStart, li, -1, 0, 0, 0)
		}
		var err error
		var failed bool
		if _, ok := layer.(nn.Prunable); ok {
			failed, err = e.runPrunableStage(li, pi, prunables[pi].Mask(), inj, resuming, &stats)
		} else {
			failed, err = e.runCPUStage(li, inj, &stats)
		}
		if err != nil {
			return nil, err
		}
		if failed {
			// Power failure: volatile state is lost; NVM counters decide
			// where execution resumes. Recovery re-enters the same stage.
			stats.Failures++
			e.clk.Emit(obs.KindFailure, li, -1, 0, 0, 0)
			e.clk.Emit(obs.KindPowerOff, li, -1, 0, 0, 0)
			resuming = true
			continue
		}
		resuming = false
		e.clk.Emit(obs.KindLayerEnd, li, -1, 0, 0, 0)
		if _, ok := layer.(nn.Prunable); ok {
			pi++
		}
		e.commitStage()
	}
	e.clk.Emit(obs.KindPowerOff, -1, -1, 0, 0, 0)

	lastIdx := len(e.Net.Layers) - 1
	out := e.nvm.acts[lastIdx]
	outShift := e.nvm.actShifts[lastIdx]
	logits := make([]float32, len(out))
	s := pow2(outShift)
	for i, q := range out {
		logits[i] = float32(q.Float() * s) //iprune:allow-float logit dequantization for the caller
	}
	best := 0
	for i := range logits {
		if logits[i] > logits[best] {
			best = i
		}
	}
	return &InferResult{Logits: logits, Pred: best, Stats: stats}, nil
}

//iprune:allow-float calibration helper for power-of-two scales
func pow2(n int) float64 {
	v := 1.0
	for i := 0; i < n; i++ {
		v *= 2
	}
	for i := 0; i > n; i-- {
		v /= 2
	}
	return v
}

// runCPUStage executes a non-accelerated layer (activation, pooling,
// flatten) as one atomic recomputable step: it reads the committed input
// activation from NVM, computes in VM, and commits the output through
// commitAct. A failure before the commit simply recomputes.
//
//iprune:hotpath
//iprune:allow-budget one recomputable step over a layer-sized activation; the layer fits the VM working set by construction and commitAct cuts the region
func (e *Engine) runCPUStage(li int, inj FailureInjector, stats *ExecStats) (failed bool, err error) {
	in := e.nvm.acts[li-1]
	shift := e.nvm.actShifts[li-1]
	stats.AuxReadBytes += int64(2 * len(in))
	var out []fixed.Q15
	switch l := e.Net.Layers[li].(type) {
	case *nn.ReLU:
		out = make([]fixed.Q15, len(in))
		for i, q := range in {
			if q > 0 {
				out[i] = q
			}
		}
	case *nn.Flatten:
		out = append([]fixed.Q15(nil), in...)
	case *nn.MaxPool2D:
		out = make([]fixed.Q15, l.C*l.OutH*l.OutW)
		oi := 0
		for c := 0; c < l.C; c++ {
			plane := in[c*l.InH*l.InW:]
			for oh := 0; oh < l.OutH; oh++ {
				for ow := 0; ow < l.OutW; ow++ {
					var best fixed.Q15
					first := true
					for kh := 0; kh < l.KH; kh++ {
						for kw := 0; kw < l.KW; kw++ {
							v := plane[(oh*l.SH+kh)*l.InW+(ow*l.SW+kw)]
							if first || v > best {
								best = v
								first = false
							}
						}
					}
					out[oi] = best
					oi++
				}
			}
		}
	case *nn.GlobalAvgPool:
		out = make([]fixed.Q15, l.C)
		hw := l.H * l.W
		for c := 0; c < l.C; c++ {
			var acc int64
			for _, q := range in[c*hw : c*hw+hw] {
				acc += int64(q)
			}
			out[c] = fixed.Q15(acc / int64(hw))
		}
	default:
		return false, fmt.Errorf("hawaii: unsupported CPU stage %T", e.Net.Layers[li])
	}
	if inj.Fail() {
		return true, nil
	}
	e.commitAct(li, out, shift)
	stats.AuxWriteBytes += int64(2 * len(out))
	e.clk.Emit(obs.KindPreserve, li, -1, 0, int64(2*len(in)), int64(2*len(out)))
	return false, nil
}

// runPrunableStage executes one conv/FC layer on the accelerator as a
// sequence of ops with job-counter preservation. Returns failed=true when
// the injector fired; the committed NVM cursors make re-entry resume at
// the interrupted op.
//
//iprune:hotpath
//iprune:allow-budget the op loop preserves job cursors after every accelerator op; op sizes are plan-dependent and CostSim checks each against the buffer (ErrOpExceedsBuffer)
func (e *Engine) runPrunableStage(li, pi int, mask *nn.BlockMask, inj FailureInjector, resuming bool, stats *ExecStats) (failed bool, err error) {
	spec := &e.Specs[pi]
	lw := &e.Model.Layers[pi]
	w := lw.Weights
	outShift := e.outShifts[pi]
	inAct := e.nvm.acts[li-1]
	inShift := e.nvm.actShifts[li-1]

	// The ops walk the network's current mask with the schedules' cursor.
	// Op (br, bc) runs BSR slot RowPtr[br]+Seen, which must hold block
	// column bc: a mask that no longer matches the deployed BSR is an
	// error, not a different schedule.
	if err := tile.CheckMask(spec, mask); err != nil {
		return false, err
	}
	op := tile.Ops(spec, mask)
	if op.Blocks() != w.NNZBlocks() {
		return false, fmt.Errorf("hawaii: %s: mask keeps %d blocks, the deployed BSR holds %d", spec.Name, op.Blocks(), w.NNZBlocks())
	}

	// Input transformation (paper: "tile input data transformation"):
	// materialize the K×N GEMM operand in NVM once per stage.
	if !e.nvm.txDone {
		col, terr := e.transformInput(li, spec, inAct)
		if terr != nil {
			return false, terr
		}
		if inj.Fail() {
			return true, nil
		}
		e.commitTransform(col, spec.M*spec.N)
		stats.AuxWriteBytes += int64(2 * len(col))
		e.clk.Emit(obs.KindPreserve, li, -1, 0, 0, int64(2*len(col)))
		// If the failure hit the transform itself, redoing it was the
		// recovery; the first op then runs for the first time.
		resuming = false
	}

	bk := w.BM * w.BK
	var ord int64
	for op.Next() {
		s := int(w.RowPtr[op.Row]) + op.Seen
		if s >= int(w.RowPtr[op.Row+1]) || int(w.ColIdx[s]) != op.Col {
			return false, fmt.Errorf("hawaii: %s: mask block (%d,%d) is not in the deployed BSR", spec.Name, op.Row, op.Col)
		}
		if ord < e.nvm.opCounter {
			ord++
			continue // already committed before the failure
		}
		b := op.Bytes(tile.Intermittent, e.Cfg)
		opRead := b.Weight + b.Input
		if resuming {
			// Only the interrupted op re-executes (HAWAII's recovery
			// property); ops after it run for the first time. It re-reads
			// its weight block, the full input tile (lost with VM) and
			// the preserved partials, which in steady state live in the
			// VM-resident panel (the NVM parity buffers model the
			// preserved copy). The re-fetch rides on the event so the
			// calibrated timeline can price recovery like the cost
			// simulator's RefetchBytes.
			stats.ReExecOps++
			resuming = false
			opRead = b.Refetch
			e.clk.Emit(obs.KindReExec, li, ord, 0, b.Refetch, 0)
		}
		e.clk.Emit(obs.KindOpStart, li, ord, 0, 0, 0)
		block := w.Blocks[s*bk : (s+1)*bk]
		src := e.nvm.partial[(op.Seen+1)%2]
		dst := e.nvm.partial[op.Seen%2]
		stats.OpReadBytes += opRead
		accumulateBlock(dst, src, e.nvm.col, block,
			op.Seen == 0, op.R0, op.RM, op.N0, op.TN, op.K0, op.KK,
			spec.N, w.BK, w.Shift, inShift, outShift)
		opWrite := b.Output + b.Indicator
		stats.OpWriteBytes += opWrite
		if inj.Fail() {
			// Failure after the data write but before the counter
			// commit: the op will re-execute on resume, reading the
			// untouched previous-parity buffer — idempotent.
			return true, nil
		}
		e.commitOp(ord)
		stats.Ops++
		stats.Jobs += op.Jobs()
		if e.clk.Enabled() {
			// One emission covers the committed op and its
			// preservation: the clock prices the op like the cost
			// simulator (overlapped write) and renders the trailing
			// preserve instant itself.
			e.clk.Emit(obs.KindOpCommit, li, ord, op.MACs(), opRead, opWrite)
		}
		ord++
	}

	// Finalize: gather each row strip from its last parity, add biases,
	// commit the OFM as the stage's activation. Idempotent on re-entry.
	out := make([]fixed.Q15, spec.M*spec.N)
	for br := 0; br < w.BlockRows(); br++ {
		r0 := br * spec.TM
		rm := min(spec.TM, spec.M-r0)
		kept := int(w.RowPtr[br+1] - w.RowPtr[br])
		var buf []fixed.Q15
		if kept > 0 {
			buf = e.nvm.partial[(kept-1)%2]
		}
		for r := 0; r < rm; r++ {
			gr := r0 + r
			b := rescaleQ(lw.Biases.Data[gr], lw.Biases.Shift, outShift)
			for c := 0; c < spec.N; c++ {
				v := fixed.Q15(0)
				if buf != nil {
					v = buf[gr*spec.N+c]
				}
				out[gr*spec.N+c] = fixed.Add(v, b)
			}
		}
	}
	stats.AuxReadBytes += int64(2 * spec.M * spec.N)
	if inj.Fail() {
		return true, nil
	}
	e.commitAct(li, out, outShift)
	stats.AuxWriteBytes += int64(2 * spec.M * spec.N)
	e.clk.Emit(obs.KindPreserve, li, -1, 0, int64(2*spec.M*spec.N), int64(2*spec.M*spec.N))
	return false, nil
}

// accumulateBlock is the MAC inner kernel of one accelerator op: it
// widens one surviving weight block against the transformed input
// panel, narrows each dot product to the output scale, and accumulates
// it onto the previous parity's partials — writing dst, reading src.
// The caller passes the parity buffers explicitly (dst is this op's
// buffer, src the opposite one; first suppresses the src read on a
// row strip's first op), which keeps the ping-pong WAR discipline
// visible in the signature and leaves the kernel free of engine state,
// so block-parallel execution can shard calls across row strips.
//
//iprune:hotpath
//iprune:allow-budget block dimensions come from the tile plan, which sizes every op to the VM budget; one block never spans a preservation boundary
func accumulateBlock(dst, src, col, block []fixed.Q15,
	first bool, r0, rm, n0, tn, k0, kk, n, bk, wShift, inShift, outShift int) {
	for r := 0; r < rm; r++ {
		gr := r0 + r
		wrow := block[r*bk:]
		for c := 0; c < tn; c++ {
			gc := n0 + c
			var acc int64
			for kq := 0; kq < kk; kq++ {
				acc += int64(wrow[kq]) * int64(col[(k0+kq)*n+gc])
			}
			contrib := narrowAcc(acc, wShift, inShift, outShift)
			prev := fixed.Q15(0)
			if !first {
				prev = src[gr*n+gc]
			}
			dst[gr*n+gc] = fixed.Add(prev, contrib)
		}
	}
}

// narrowAcc converts a 30-fractional-bit accumulator at combined scale
// 2^(wShift+xShift) to Q15 at scale 2^outShift.
func narrowAcc(acc int64, wShift, xShift, outShift int) fixed.Q15 {
	sh := 15 + outShift - wShift - xShift
	var v int64
	switch {
	case sh > 0:
		v = acc + (1 << (sh - 1))
		v >>= uint(sh)
	case sh < 0:
		v = acc << uint(-sh)
	default:
		v = acc
	}
	if v > fixed.One {
		return fixed.Q15(fixed.One)
	}
	if v < fixed.MinVal {
		return fixed.Q15(fixed.MinVal)
	}
	return fixed.Q15(v)
}

// transformInput builds the K×N GEMM operand for the stage: im2col for
// convolutions (zero padding included), the activation vector for FC.
func (e *Engine) transformInput(li int, spec *tile.LayerSpec, inAct []fixed.Q15) ([]fixed.Q15, error) {
	switch l := e.Net.Layers[li].(type) {
	case *nn.FC:
		if len(inAct) != spec.K {
			return nil, fmt.Errorf("hawaii: FC %s input %d, want %d", spec.Name, len(inAct), spec.K)
		}
		return append([]fixed.Q15(nil), inAct...), nil
	case *nn.Conv2D:
		g := &l.Geom
		col := make([]fixed.Q15, spec.K*spec.N)
		row := 0
		for c := 0; c < g.InC; c++ {
			plane := inAct[c*g.InH*g.InW:]
			for kh := 0; kh < g.KH; kh++ {
				for kw := 0; kw < g.KW; kw++ {
					dst := col[row*spec.N:]
					i := 0
					for oh := 0; oh < g.OutH; oh++ {
						ih := oh*g.StrideH - g.PadH + kh
						for ow := 0; ow < g.OutW; ow++ {
							iw := ow*g.StrideW - g.PadW + kw
							if ih < 0 || ih >= g.InH || iw < 0 || iw >= g.InW {
								dst[i] = 0
							} else {
								dst[i] = plane[ih*g.InW+iw]
							}
							i++
						}
					}
					row++
				}
			}
		}
		return col, nil
	default:
		return nil, fmt.Errorf("hawaii: unsupported prunable stage %T", e.Net.Layers[li])
	}
}
