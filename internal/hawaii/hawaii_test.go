package hawaii

import (
	"errors"
	"strings"

	"math"
	"math/rand"
	"testing"

	"iprune/internal/energy"
	"iprune/internal/nn"
	"iprune/internal/power"
	"iprune/internal/tensor"
	"iprune/internal/tile"
)

func buildNet(seed int64) (*nn.Network, []tile.LayerSpec, tile.Config) {
	rng := rand.New(rand.NewSource(seed))
	n := nn.NewNetwork("t", 4)
	n.Add(nn.NewConv2D("c1", tensor.ConvGeom{InC: 2, InH: 16, InW: 16, OutC: 12, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, rng))
	n.Add(nn.NewReLU("r1"))
	n.Add(nn.NewMaxPool2D("p1", 12, 16, 16, 2, 2))
	n.Add(nn.NewConv2D("c2", tensor.ConvGeom{InC: 12, InH: 8, InW: 8, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, rng))
	n.Add(nn.NewReLU("r2"))
	n.Add(nn.NewMaxPool2D("p2", 16, 8, 8, 2, 2))
	n.Add(nn.NewFlatten("fl"))
	n.Add(nn.NewFC("f1", 16*4*4, 4, rng))
	cfg := tile.DefaultConfig()
	specs := tile.SpecsFromNetwork(n, cfg)
	tile.InstallMasks(n, specs)
	return n, specs, cfg
}

// The must* helpers run the cost sim and fail the test if the schedule
// cannot complete (ErrOpExceedsBuffer) — none of these fixtures should
// ever exceed the buffer.

func mustRun(t *testing.T, cs *CostSim, ops []Op, mode tile.Mode, sup power.Supply, seed int64) Result {
	t.Helper()
	res, err := cs.Run(ops, mode, sup, seed)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func mustRunWithSim(t *testing.T, cs *CostSim, ops []Op, mode tile.Mode, sim *power.Sim) Result {
	t.Helper()
	res, err := cs.RunWithSim(ops, mode, sim)
	if err != nil {
		t.Fatalf("RunWithSim: %v", err)
	}
	return res
}

func mustRunNetwork(t *testing.T, cs *CostSim, net *nn.Network, specs []tile.LayerSpec, mode tile.Mode, sup power.Supply, seed int64) Result {
	t.Helper()
	res, err := cs.RunNetwork(net, specs, mode, sup, seed)
	if err != nil {
		t.Fatalf("RunNetwork: %v", err)
	}
	return res
}

func pruneSome(net *nn.Network, every int) {
	for _, p := range net.Prunables() {
		m := p.Mask()
		for b := 0; b < m.NumBlocks(); b += every {
			m.Keep[b] = false
		}
		p.ApplyMask()
	}
}

// ---------------------------------------------------------------------------
// Schedule consistency

func TestScheduleMatchesCountLayer(t *testing.T) {
	net, specs, cfg := buildNet(1)
	pruneSome(net, 3)
	prunables := net.Prunables()
	for _, mode := range []tile.Mode{tile.Intermittent, tile.Continuous} {
		for i := range specs {
			mask := prunables[i].Mask()
			want := tile.CountLayer(&specs[i], mask, mode, cfg)
			ops := BuildSchedule(&specs[i], mask, mode, cfg)
			var got tile.Counts
			for _, op := range ops {
				got.Ops++
				got.Jobs += op.Jobs
				got.MACs += op.MACs
				got.WeightRead += op.WeightRead
				got.InputRead += op.InputRead
				got.OutputWrite += op.OutWrite
				got.IndicatorWrite += op.IndWrite
			}
			if got != want {
				t.Errorf("%s/%v: schedule aggregate %+v != analytic %+v", specs[i].Name, mode, got, want)
			}
		}
	}
}

func TestScheduleSkipsPrunedBlocks(t *testing.T) {
	net, specs, cfg := buildNet(2)
	before := len(ScheduleFromNetwork(net, specs, tile.Intermittent, cfg))
	pruneSome(net, 2)
	after := len(ScheduleFromNetwork(net, specs, tile.Intermittent, cfg))
	if after >= before {
		t.Errorf("pruning did not shrink the schedule: %d -> %d", before, after)
	}
}

// ---------------------------------------------------------------------------
// Cost simulator

func TestCostSimContinuousSupplyNeverFails(t *testing.T) {
	net, specs, cfg := buildNet(3)
	cs := NewCostSim(cfg)
	res := mustRunNetwork(t, cs, net, specs, tile.Intermittent, power.ContinuousPower, 1)
	if res.Failures != 0 || res.OffTime != 0 {
		t.Errorf("continuous supply: failures=%d off=%v", res.Failures, res.OffTime)
	}
	if res.Latency <= 0 || res.Energy <= 0 {
		t.Error("latency and energy must be positive")
	}
	if math.Abs(res.Latency-res.ActiveTime) > 1e-12 {
		t.Error("continuous latency must equal active time")
	}
}

func TestCostSimWeakSlowerThanStrong(t *testing.T) {
	net, specs, cfg := buildNet(4)
	cs := NewCostSim(cfg)
	cont := mustRunNetwork(t, cs, net, specs, tile.Intermittent, power.ContinuousPower, 1)
	strong := mustRunNetwork(t, cs, net, specs, tile.Intermittent, power.StrongPower, 1)
	weak := mustRunNetwork(t, cs, net, specs, tile.Intermittent, power.WeakPower, 1)
	if !(cont.Latency < strong.Latency && strong.Latency < weak.Latency) {
		t.Errorf("latency ordering violated: cont=%v strong=%v weak=%v",
			cont.Latency, strong.Latency, weak.Latency)
	}
	if !(strong.Failures > 0 && weak.Failures > strong.Failures) {
		t.Errorf("failure ordering violated: strong=%d weak=%d", strong.Failures, weak.Failures)
	}
}

func TestCostSimIntermittentWriteDominated(t *testing.T) {
	// The paper's Figure 2: under the intermittent discipline NVM writes
	// dominate; under the conventional flow reads+compute dominate.
	net, specs, cfg := buildNet(5)
	cs := NewCostSim(cfg)
	inter := mustRunNetwork(t, cs, net, specs, tile.Intermittent, power.ContinuousPower, 1)
	conv := mustRunNetwork(t, cs, net, specs, tile.Continuous, power.ContinuousPower, 1)
	if inter.Break.WriteTime <= inter.Break.ReadTime+inter.Break.ComputeTime {
		t.Errorf("intermittent not write-dominated: write=%v read=%v compute=%v",
			inter.Break.WriteTime, inter.Break.ReadTime, inter.Break.ComputeTime)
	}
	if conv.Break.WriteTime >= conv.Break.ReadTime+conv.Break.ComputeTime {
		t.Errorf("conventional flow write-dominated: write=%v read=%v compute=%v",
			conv.Break.WriteTime, conv.Break.ReadTime, conv.Break.ComputeTime)
	}
	if conv.Latency >= inter.Latency {
		t.Error("conventional data-reuse flow should be faster than preservation under continuous power")
	}
}

func TestCostSimPruningSpeedsUp(t *testing.T) {
	net, specs, cfg := buildNet(6)
	cs := NewCostSim(cfg)
	before := mustRunNetwork(t, cs, net, specs, tile.Intermittent, power.StrongPower, 1)
	pruneSome(net, 2)
	after := mustRunNetwork(t, cs, net, specs, tile.Intermittent, power.StrongPower, 1)
	if after.Latency >= before.Latency {
		t.Errorf("pruning did not speed up: %v -> %v", before.Latency, after.Latency)
	}
	if after.Jobs >= before.Jobs {
		t.Error("pruning did not reduce jobs")
	}
}

func TestCostSimDeterministicForSeed(t *testing.T) {
	net, specs, cfg := buildNet(7)
	cs := NewCostSim(cfg)
	a := mustRunNetwork(t, cs, net, specs, tile.Intermittent, power.WeakPower, 42)
	b := mustRunNetwork(t, cs, net, specs, tile.Intermittent, power.WeakPower, 42)
	if a != b {
		t.Error("same seed must reproduce identical results")
	}
}

func TestCostSimConventionalNeedsContinuous(t *testing.T) {
	net, specs, cfg := buildNet(8)
	cs := NewCostSim(cfg)
	defer func() {
		if recover() == nil {
			t.Error("expected panic: conventional flow under harvested power")
		}
	}()
	cs.RunNetwork(net, specs, tile.Continuous, power.WeakPower, 1)
}

func TestCostSimPowerCyclesRealistic(t *testing.T) {
	// The paper: an end-to-end inference takes dozens to a few hundreds of
	// power cycles. Even this small model should need more than a few.
	net, specs, cfg := buildNet(9)
	cs := NewCostSim(cfg)
	res := mustRunNetwork(t, cs, net, specs, tile.Intermittent, power.StrongPower, 1)
	if res.Failures < 5 {
		t.Errorf("only %d power cycles; power model suspiciously generous", res.Failures)
	}
}

func TestCostSimOpExceedsBufferError(t *testing.T) {
	// One monster op whose single-op energy dwarfs the default buffer:
	// the sim must return a typed error instead of crashing, and the
	// partial result must show zero committed ops.
	cfg := tile.DefaultConfig()
	cs := NewCostSim(cfg)
	ops := priceOps([]Op{{Layer: 0, MACs: 1 << 30, Jobs: 1, WeightRead: 1 << 24, OutWrite: 1 << 24, RefetchBytes: 1 << 24}}, tile.Intermittent, cfg)
	res, err := cs.Run(ops, tile.Intermittent, power.WeakPower, 1)
	if err == nil {
		t.Fatal("expected ErrOpExceedsBuffer, got nil")
	}
	var ebuf *ErrOpExceedsBuffer
	if !errors.As(err, &ebuf) {
		t.Fatalf("error is %T, want *ErrOpExceedsBuffer", err)
	}
	if ebuf.Op != 0 || ebuf.Supply != power.WeakPower.Name {
		t.Errorf("error fields: %+v", ebuf)
	}
	if ebuf.Energy <= ebuf.Buffer {
		t.Errorf("reported energy %g should exceed buffer %g", ebuf.Energy, ebuf.Buffer)
	}
	if res.Ops != 0 {
		t.Errorf("partial result committed %d ops, want 0", res.Ops)
	}
	if res.Failures == 0 {
		t.Error("partial result should record the power failures spent retrying")
	}
	for _, want := range []string{"op 0", power.WeakPower.Name, "buffer"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestOpCostMatchesEnergyModel(t *testing.T) {
	// The schedule builders must price ops through energy.Model — the
	// same table the regionbudget static analyzer reads. Any drift
	// between the two fails here.
	net, specs, cfg := buildNet(4)
	pruneSome(net, 3)
	em := energy.Default()
	check := func(name string, ops []Op, mode tile.Mode) {
		t.Helper()
		for i := range ops {
			op := &ops[i]
			overlapped := mode == tile.Intermittent && !op.SerialWrite
			wantT, wantE := em.OpCost(op.MACs, op.WeightRead+op.InputRead, op.OutWrite+op.IndWrite, overlapped)
			if op.Time != wantT || op.Energy != wantE {
				t.Errorf("%s op %d: priced (%g, %g), energy.Model.OpCost (%g, %g)", name, i, op.Time, op.Energy, wantT, wantE)
			}
			wantT, wantE = em.RecoveryCost(int64(cfg.IndicatorBytes)+4, op.RefetchBytes)
			if op.RecoveryTime != wantT || op.RecoveryEnergy != wantE {
				t.Errorf("%s op %d: recovery priced (%g, %g), energy.Model.RecoveryCost (%g, %g)",
					name, i, op.RecoveryTime, op.RecoveryEnergy, wantT, wantE)
			}
			b := op.Break
			if sum := b.ReadTime + b.WriteTime + b.ComputeTime + b.OverheadTime; math.Abs(sum-op.Time) > 1e-12*op.Time {
				t.Errorf("%s op %d: breakdown sums to %g, op time %g", name, i, sum, op.Time)
			}
		}
	}
	for _, mode := range []tile.Mode{tile.Intermittent, tile.Continuous} {
		check(mode.String(), ScheduleFromNetwork(net, specs, mode, cfg), mode)
	}
	check("task", TaskScheduleFromNetwork(net, specs, cfg), tile.Intermittent)
}

// ---------------------------------------------------------------------------
// Functional engine

func engineSamples(rng *rand.Rand, n int) []nn.Sample {
	var out []nn.Sample
	for i := 0; i < n; i++ {
		x := tensor.New(2, 16, 16)
		for j := range x.Data {
			x.Data[j] = rng.Float32()*2 - 1
		}
		out = append(out, nn.Sample{X: x, Label: i % 4})
	}
	return out
}

func newTestEngine(t testing.TB, seed int64, pruneEvery int) (*Engine, []nn.Sample) {
	t.Helper()
	net, specs, cfg := buildNet(seed)
	if pruneEvery > 0 {
		pruneSome(net, pruneEvery)
	}
	rng := rand.New(rand.NewSource(seed + 100))
	samples := engineSamples(rng, 8)
	e, err := NewEngine(net, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Calibrate(samples[:4])
	return e, samples
}

func TestEngineMatchesFloatPrediction(t *testing.T) {
	e, samples := newTestEngine(t, 10, 0)
	agree := 0
	for _, s := range samples {
		res, err := e.Infer(s.X, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Pred == e.Net.Predict(s.X) {
			agree++
		}
	}
	if agree < len(samples)*3/4 {
		t.Errorf("engine/float agreement %d/%d too low", agree, len(samples))
	}
}

func TestEngineLogitsCloseToFloat(t *testing.T) {
	e, samples := newTestEngine(t, 11, 0)
	res, err := e.Infer(samples[0].X, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := e.Net.Forward(samples[0].X)
	for i := range res.Logits {
		if math.Abs(float64(res.Logits[i]-ref.Data[i])) > 0.25 {
			t.Errorf("logit %d: engine %v vs float %v", i, res.Logits[i], ref.Data[i])
		}
	}
}

func TestEngineFailureEquivalence(t *testing.T) {
	// The headline correctness property: inference interrupted by power
	// failures produces bit-identical logits to an uninterrupted run.
	// N=1 would fail at every boundary, denying forward progress by
	// construction (no real supply does that: a recharged buffer always
	// completes at least one op), so N=2 is the harshest survivable rate.
	for _, everyN := range []int64{2, 3, 7, 50} {
		e, samples := newTestEngine(t, 12, 3)
		clean, err := e.Infer(samples[0].X, nil)
		if err != nil {
			t.Fatal(err)
		}
		faulty, err := e.Infer(samples[0].X, &EveryN{N: everyN})
		if err != nil {
			t.Fatal(err)
		}
		if faulty.Stats.Failures == 0 {
			t.Fatalf("injector N=%d produced no failures", everyN)
		}
		for i := range clean.Logits {
			if clean.Logits[i] != faulty.Logits[i] {
				t.Fatalf("N=%d: logit %d differs: clean %v faulty %v (failures=%d)",
					everyN, i, clean.Logits[i], faulty.Logits[i], faulty.Stats.Failures)
			}
		}
		if faulty.Stats.ReExecOps == 0 {
			t.Errorf("N=%d: failures occurred but no ops re-executed", everyN)
		}
	}
}

func TestEngineCommittedWorkIdenticalUnderFailures(t *testing.T) {
	e, samples := newTestEngine(t, 13, 2)
	clean, err := e.Infer(samples[1].X, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := e.Infer(samples[1].X, &EveryN{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Stats.Ops != faulty.Stats.Ops || clean.Stats.Jobs != faulty.Stats.Jobs {
		t.Errorf("committed ops/jobs differ: clean %d/%d faulty %d/%d",
			clean.Stats.Ops, clean.Stats.Jobs, faulty.Stats.Ops, faulty.Stats.Jobs)
	}
	// The faulty run must have paid extra reads for re-execution.
	if faulty.Stats.OpReadBytes <= clean.Stats.OpReadBytes {
		t.Error("re-execution should cost extra NVM reads")
	}
}

func TestEngineStatsMatchSchedule(t *testing.T) {
	// Without failures, the functional engine's op-level NVM traffic must
	// equal the analytic schedule's, tying the two views together.
	e, samples := newTestEngine(t, 14, 3)
	res, err := e.Infer(samples[0].X, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := ScheduleFromNetwork(e.Net, e.Specs, tile.Intermittent, e.Cfg)
	var wantWrite, wantRead, wantJobs, wantOps int64
	for _, op := range ops {
		wantWrite += op.OutWrite + op.IndWrite
		wantRead += op.WeightRead + op.InputRead
		wantJobs += op.Jobs
		wantOps++
	}
	if res.Stats.OpWriteBytes != wantWrite {
		t.Errorf("OpWriteBytes = %d, schedule says %d", res.Stats.OpWriteBytes, wantWrite)
	}
	if res.Stats.OpReadBytes != wantRead {
		t.Errorf("OpReadBytes = %d, schedule says %d", res.Stats.OpReadBytes, wantRead)
	}
	if res.Stats.Jobs != wantJobs || res.Stats.Ops != wantOps {
		t.Errorf("jobs/ops = %d/%d, schedule says %d/%d", res.Stats.Jobs, res.Stats.Ops, wantJobs, wantOps)
	}
}

func TestEnginePrunedSkipsZeroBlocks(t *testing.T) {
	eFull, samples := newTestEngine(t, 15, 0)
	ePruned, _ := newTestEngine(t, 15, 2)
	full, err := eFull.Infer(samples[0].X, nil)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := ePruned.Infer(samples[0].X, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Stats.Ops >= full.Stats.Ops || pruned.Stats.OpWriteBytes >= full.Stats.OpWriteBytes {
		t.Error("BSR did not skip pruned blocks")
	}
}

func TestEngineHandlesHeavyFailureRate(t *testing.T) {
	// Fail at every single preservation boundary once: forward progress
	// must still complete (each op commits before the next boundary).
	e, samples := newTestEngine(t, 16, 3)
	res, err := e.Infer(samples[0].X, &EveryN{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := e.Infer(samples[0].X, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Logits {
		if clean.Logits[i] != res.Logits[i] {
			t.Fatal("heavy failure rate changed the result")
		}
	}
}

func TestRescaleQ(t *testing.T) {
	q := rescaleQ(16384, 0, 1) // 0.5 at shift 0 -> 0.25 slot at shift 1
	if q != 8192 {
		t.Errorf("rescale down = %d, want 8192", q)
	}
	q = rescaleQ(8192, 1, 0)
	if q != 16384 {
		t.Errorf("rescale up = %d, want 16384", q)
	}
	// Saturation when moving to a smaller scale.
	q = rescaleQ(30000, 3, 0)
	if q != 32767 {
		t.Errorf("rescale saturate = %d, want 32767", q)
	}
}

func TestCostSimTraceDriven(t *testing.T) {
	net, specs, cfg := buildNet(20)
	cs := NewCostSim(cfg)
	ops := ScheduleFromNetwork(net, specs, tile.Intermittent, cfg)
	// Bright trace vs dim trace: the dim day must be slower.
	bright := power.Trace{Times: []float64{0, 100}, Powers: []float64{16e-3, 16e-3}}
	dim := power.Trace{Times: []float64{0, 100}, Powers: []float64{3e-3, 3e-3}}
	bs, err := power.NewTraceSim(power.DefaultBuffer(), bright, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := power.NewTraceSim(power.DefaultBuffer(), dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	rb := mustRunWithSim(t, cs, ops, tile.Intermittent, bs)
	rd := mustRunWithSim(t, cs, ops, tile.Intermittent, ds)
	if rb.Latency >= rd.Latency {
		t.Errorf("bright trace latency %v >= dim %v", rb.Latency, rd.Latency)
	}
	if rd.Failures <= rb.Failures {
		t.Errorf("dim trace failures %d <= bright %d", rd.Failures, rb.Failures)
	}
}

func TestCostSimRunMatchesRunWithSim(t *testing.T) {
	net, specs, cfg := buildNet(21)
	cs := NewCostSim(cfg)
	ops := ScheduleFromNetwork(net, specs, tile.Intermittent, cfg)
	a := mustRun(t, cs, ops, tile.Intermittent, power.WeakPower, 5)
	b := mustRunWithSim(t, cs, ops, tile.Intermittent, power.NewSim(power.DefaultBuffer(), power.WeakPower, 5))
	if a != b {
		t.Error("Run and RunWithSim diverged for the same supply/seed")
	}
}
