// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md and
// microbenchmarks of the substrates.
//
// The Table III / Figure 5 benches run the full train→prune→deploy→
// simulate pipeline once per process (cached via sync.Once, reusing
// ./artifacts when present) and report the headline quantities as custom
// metrics. Set IPRUNE_FULL=1 to run them at the paper-style full scale.
package iprune_test

import (
	"math/rand"
	"os"
	"sync"
	"testing"

	"iprune"
	"iprune/internal/analysis"
	"iprune/internal/core"
	"iprune/internal/dataset"
	"iprune/internal/hawaii"
	"iprune/internal/models"
	"iprune/internal/nn"
	"iprune/internal/power"
	"iprune/internal/quant"
	"iprune/internal/report"
	"iprune/internal/tensor"
	"iprune/internal/tile"
)

// ---------------------------------------------------------------------------
// Pipeline (shared by the Table III / Figure 5 benches)

var (
	pipeOnce sync.Once
	pipeRes  []*report.AppResult
	pipeErr  error
)

func pipeline(b *testing.B) []*report.AppResult {
	b.Helper()
	pipeOnce.Do(func() {
		sc := report.Quick
		if os.Getenv("IPRUNE_FULL") == "1" {
			sc = report.Full
		}
		pipeRes, pipeErr = report.RunAll(sc, 42, "artifacts", nil)
	})
	if pipeErr != nil {
		b.Fatal(pipeErr)
	}
	return pipeRes
}

// BenchmarkTable1Environment renders the platform specification table.
func BenchmarkTable1Environment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(report.RenderTable1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Characteristics measures the analytic model
// characterization (build + lower + count) of all three applications.
func BenchmarkTable2Characteristics(b *testing.B) {
	cfg := tile.DefaultConfig()
	for i := 0; i < b.N; i++ {
		for _, name := range models.Names() {
			net, err := models.ByName(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			specs := tile.SpecsFromNetwork(net, cfg)
			tile.InstallMasks(net, specs)
			c := tile.CountNetwork(net, specs, tile.Intermittent, cfg)
			if c.Jobs == 0 {
				b.Fatal("no jobs counted")
			}
		}
	}
}

// BenchmarkTable3PrunedModels runs the full pruning pipeline and reports
// the Table III quantities for the iPrune variants.
func BenchmarkTable3PrunedModels(b *testing.B) {
	if testing.Short() {
		b.Skip("full pipeline")
	}
	results := pipeline(b)
	for i := 0; i < b.N; i++ {
		_ = report.RenderTable3(results)
	}
	for _, r := range results {
		ip := r.Variants[2]
		b.ReportMetric(float64(ip.SizeBytes)/1024, r.App+"_iprune_KB")
		b.ReportMetric(100*ip.AccuracyQ, r.App+"_iprune_acc%")
		b.ReportMetric(float64(ip.Counts.Jobs)/1000, r.App+"_iprune_jobsK")
	}
}

// BenchmarkFig2Breakdown measures the latency-breakdown simulation of the
// unpruned models in both execution disciplines.
func BenchmarkFig2Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range models.Names() {
			conv, inter, err := report.Fig2Breakdown(app, report.Quick, 1)
			if err != nil {
				b.Fatal(err)
			}
			if inter.Break.WriteTime <= conv.Break.WriteTime {
				b.Fatal("breakdown shape violated")
			}
		}
	}
}

// BenchmarkFig5Latency runs the full pipeline and reports the headline
// speedups of Figure 5.
func BenchmarkFig5Latency(b *testing.B) {
	if testing.Short() {
		b.Skip("full pipeline")
	}
	results := pipeline(b)
	for i := 0; i < b.N; i++ {
		_ = report.RenderFig5(results)
	}
	for _, r := range results {
		for _, sup := range report.Supplies() {
			u := r.Variants[0].Latency[sup.Name].Latency
			e := r.Variants[1].Latency[sup.Name].Latency
			ip := r.Variants[2].Latency[sup.Name].Latency
			b.ReportMetric(e/ip, r.App+"_"+sup.Name+"_vs_eprune_x")
			b.ReportMetric(u/ip, r.App+"_"+sup.Name+"_vs_unpruned_x")
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md section 5)

func ablationNet(b *testing.B, seed int64) (*nn.Network, []nn.Sample, []nn.Sample) {
	b.Helper()
	ds := dataset.HAR(dataset.Config{Train: 96, Test: 48, Noise: 0.3}, seed)
	net := models.HAR(seed)
	opt := nn.NewSGD(0.005, 0.9)
	rng := rand.New(rand.NewSource(seed))
	for e := 0; e < 6; e++ {
		nn.TrainEpoch(net, ds.Train, opt, 16, rng)
		opt.LR *= 0.85
	}
	return net, ds.Train, ds.Test
}

func ablationOpts() core.Options {
	o := core.DefaultOptions()
	o.MaxIters = 3
	o.FinetuneEpochs = 3
	o.Epsilon = 0.08
	o.GammaHat = 0.2
	o.LR = 0.002
	o.LRDecay = 0.85
	o.SenseSamples = 32
	return o
}

// BenchmarkAblationCriterion prunes the same pretrained model under every
// criterion and reports the resulting accelerator-output counts: the
// iPrune criterion should end lowest.
func BenchmarkAblationCriterion(b *testing.B) {
	if testing.Short() {
		b.Skip("pruning ablation")
	}
	net, train, val := ablationNet(b, 21)
	crits := []core.Criterion{core.AccOutputs{}, core.Energy{}, core.MACs{}, core.Uniform{}}
	for i := 0; i < b.N; i++ {
		for _, crit := range crits {
			p := core.NewPruner(crit)
			p.Opt = ablationOpts()
			res, err := p.Run(net, train, val)
			if err != nil {
				b.Fatal(err)
			}
			st, err := iprune.Stats(res.Net)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(st.AccOutputs)/1000, crit.Name()+"_jobsK")
			}
		}
	}
}

// BenchmarkAblationGranularity compares block pruning with fine-grained
// element zeroing at equal sparsity: only the former removes accelerator
// outputs (the paper's guideline-3 argument).
func BenchmarkAblationGranularity(b *testing.B) {
	cfg := tile.DefaultConfig()
	for i := 0; i < b.N; i++ {
		blockNet := models.HAR(7)
		fineNet := models.HAR(7)
		for _, net := range []*nn.Network{blockNet, fineNet} {
			specs := tile.SpecsFromNetwork(net, cfg)
			tile.InstallMasks(net, specs)
		}
		core.OneShotBlocks(blockNet, 0.5)
		core.FineGrainedZero(fineNet, 0.5)
		bs := tile.SpecsFromNetwork(blockNet, cfg)
		fs := tile.SpecsFromNetwork(fineNet, cfg)
		blockJobs := tile.CountNetwork(blockNet, bs, tile.Intermittent, cfg).Jobs
		fineJobs := tile.CountNetwork(fineNet, fs, tile.Intermittent, cfg).Jobs
		if blockJobs >= fineJobs {
			b.Fatal("block pruning must remove accelerator outputs; fine-grained must not")
		}
		if i == 0 {
			b.ReportMetric(float64(blockJobs)/1000, "block_jobsK")
			b.ReportMetric(float64(fineJobs)/1000, "fine_jobsK")
		}
	}
}

// BenchmarkAblationGamma compares the sensitivity-guided Γ selection
// (guideline 1) against a fixed Γ̂ under the iPrune criterion.
func BenchmarkAblationGamma(b *testing.B) {
	if testing.Short() {
		b.Skip("pruning ablation")
	}
	net, train, val := ablationNet(b, 23)
	for i := 0; i < b.N; i++ {
		for _, guided := range []bool{true, false} {
			p := core.NewPruner(core.AccOutputs{})
			p.Opt = ablationOpts()
			if !guided {
				// Degenerate guideline 1: always use the upper bound.
				p.Opt.GammaHat = 0.2
				p.Opt.SensitivityDelta = 0 // probes prune one block: ~flat ranks
			}
			res, err := p.Run(net, train, val)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				name := "fixed"
				if guided {
					name = "guided"
				}
				b.ReportMetric(100*res.Accuracy, name+"_acc%")
			}
		}
	}
}

// BenchmarkPowerSweep extends Figure 5 beyond the paper's two harvested
// operating points: latency of the unpruned HAR model vs harvest power.
func BenchmarkPowerSweep(b *testing.B) {
	net := models.HAR(1)
	cfg := tile.DefaultConfig()
	specs := tile.SpecsFromNetwork(net, cfg)
	tile.InstallMasks(net, specs)
	cs := hawaii.NewCostSim(cfg)
	sweep := []float64{2e-3, 4e-3, 8e-3, 16e-3, 32e-3}
	for i := 0; i < b.N; i++ {
		var last float64
		for _, p := range sweep {
			sup := power.Supply{Name: "sweep", Power: p, Jitter: 0}
			r, err := cs.RunNetwork(net, specs, tile.Intermittent, sup, 1)
			if err != nil {
				b.Fatal(err)
			}
			if last != 0 && r.Latency >= last {
				b.Fatal("latency must fall as harvest power rises")
			}
			last = r.Latency
		}
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the substrates

func BenchmarkGemm64(b *testing.B) {
	const m, k, n = 64, 64, 64
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	for i := range a {
		a[i] = float32(i % 7)
	}
	for i := range bb {
		bb[i] = float32(i % 5)
	}
	b.SetBytes(int64(m * k * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Gemm(a, bb, c, m, k, n, false)
	}
}

// cksConv2Backprop returns operands shaped like the backward pass of
// CKS's conv2 (OutC 32, K = 48·3·4 = 576, N = 43 output positions):
// W (32×576), the layer's im2col patches (576×43) and dY (32×43).
func cksConv2Backprop() (w, col, dy []float32) {
	const outC, k, n = 32, 576, 43
	rng := rand.New(rand.NewSource(1))
	fill := func(s []float32) []float32 {
		for i := range s {
			s[i] = rng.Float32()*2 - 1
		}
		return s
	}
	return fill(make([]float32, outC*k)), fill(make([]float32, k*n)), fill(make([]float32, outC*n))
}

// BenchmarkGemmTA is CKS conv2's input gradient, dcol = Wᵀ·dY.
func BenchmarkGemmTA(b *testing.B) {
	w, _, dy := cksConv2Backprop()
	dcol := make([]float32, 576*43)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.GemmTA(w, dy, dcol, 576, 32, 43, false)
	}
}

// BenchmarkGemmTB is CKS conv2's weight gradient, dW += dY·colᵀ.
func BenchmarkGemmTB(b *testing.B) {
	_, col, dy := cksConv2Backprop()
	dw := make([]float32, 32*576)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.GemmTB(dy, col, dw, 32, 43, 576, true)
	}
}

// BenchmarkGemmTBHAR is HAR conv3's weight gradient, dW += dY·colᵀ
// (OutC 48, N = 32 output positions, K = 20·9 = 180), the GemmTB shape
// that dominates a HAR training epoch.
func BenchmarkGemmTBHAR(b *testing.B) {
	const outC, k, n = 48, 180, 32
	rng := rand.New(rand.NewSource(1))
	col, dy := make([]float32, k*n), make([]float32, outC*n)
	for _, s := range [][]float32{col, dy} {
		for i := range s {
			s[i] = rng.Float32()*2 - 1
		}
	}
	dw := make([]float32, outC*k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.GemmTB(dy, col, dw, outC, n, k, true)
	}
}

// BenchmarkAccuracyQ15CKS is the evaluation in the fleet's
// deployed-accuracy probe of a CKS node: the Q15-rounded network over 64
// held-out samples. The model and the samples are built before the timer.
func BenchmarkAccuracyQ15CKS(b *testing.B) {
	cfg := dataset.SpeechConfig()
	cfg.Train, cfg.Test = 1, 64
	ds := dataset.Speech(cfg, 1)
	net := quant.QuantizeWeights(models.CKS(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.AccuracyQ15(net, ds.Test)
	}
}

// BenchmarkAccuracyQ15HAR is the fleet's deployed-accuracy probe of a
// HAR node: the Q15-rounded network over 64 held-out samples at width
// 1, as the probe runs inside the fleet's fan-out. The model and the
// samples are built before the timer.
func BenchmarkAccuracyQ15HAR(b *testing.B) {
	cfg := dataset.HARConfig()
	cfg.Train, cfg.Test = 1, 64
	ds := dataset.HAR(cfg, 1)
	net := quant.QuantizeWeights(models.HAR(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.Evaluate(net, ds.Test, 1, quant.PredictorQ15)
	}
}

// BenchmarkForwardHAR is one float HAR forward pass over a quick-scale
// test sample, the unit of every accuracy pass: three convolutions,
// ReLUs and max-pools and the classifier. The network is warmed before
// the timer, so the alloc gate holds its passes at zero.
func BenchmarkForwardHAR(b *testing.B) {
	ds, err := report.LoadData("HAR", report.Quick, 1)
	if err != nil {
		b.Fatal(err)
	}
	net := models.HAR(1)
	net.Forward(ds.Test[0].X)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(ds.Test[i%len(ds.Test)].X)
	}
}

// BenchmarkTrainEpochHAR is one quick-scale HAR fine-tune epoch, the
// unit the pruner repeats after every pruning step: minibatch SGD over
// the quick training split at the pruner's default batch. The batches
// fan out GOMAXPROCS wide; run it at -cpu 1,2 to see the fan-out.
func BenchmarkTrainEpochHAR(b *testing.B) {
	ds, err := report.LoadData("HAR", report.Quick, 1)
	if err != nil {
		b.Fatal(err)
	}
	net := models.HAR(1)
	opt := nn.NewSGD(report.Quick.LR, 0.9)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.TrainEpoch(net, ds.Train, opt, core.DefaultOptions().Batch, rng)
	}
}

func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	conv := nn.NewConv2D("c", tensor.ConvGeom{InC: 16, InH: 16, InW: 16, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, rng)
	in := tensor.New(16, 16, 16)
	for i := range in.Data {
		in.Data[i] = rng.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(in)
	}
}

// BenchmarkConvHAR is one forward and one backward pass of HAR's conv3,
// the heaviest convolution of a prune op: Gemm 48×180 · 180×32 forward,
// GemmTB (weight gradient), GemmTA (input gradient), Im2col and Col2im.
func BenchmarkConvHAR(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	conv := nn.NewConv2D("conv3", tensor.ConvGeom{InC: 20, InH: 1, InW: 32, OutC: 48, KH: 1, KW: 9, StrideH: 1, StrideW: 1, PadW: 4}, rng)
	in := tensor.New(20, 1, 32)
	for i := range in.Data {
		in.Data[i] = rng.Float32()
	}
	gradOut := tensor.New(48, 1, 32)
	for i := range gradOut.Data {
		gradOut.Data[i] = rng.Float32()*2 - 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(in)
		conv.Backward(gradOut)
	}
}

func BenchmarkEngineInferHAR(b *testing.B) {
	net := models.HAR(1)
	cfg := tile.DefaultConfig()
	specs := tile.SpecsFromNetwork(net, cfg)
	tile.InstallMasks(net, specs)
	eng, err := hawaii.NewEngine(net, specs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset.HAR(dataset.Config{Train: 2, Test: 2, Noise: 0.3}, 1)
	eng.Calibrate(ds.Train)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Infer(ds.Test[0].X, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCostSimHAR(b *testing.B) {
	net := models.HAR(1)
	cfg := tile.DefaultConfig()
	specs := tile.SpecsFromNetwork(net, cfg)
	tile.InstallMasks(net, specs)
	cs := hawaii.NewCostSim(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.RunNetwork(net, specs, tile.Intermittent, power.WeakPower, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostSimRunHAR times the cost simulator alone, over a prebuilt
// schedule of the HAR model: BenchmarkCostSimHAR's RunNetwork rebuilds
// the schedule on every call.
func BenchmarkCostSimRunHAR(b *testing.B) {
	net := models.HAR(1)
	cfg := tile.DefaultConfig()
	specs := tile.SpecsFromNetwork(net, cfg)
	tile.InstallMasks(net, specs)
	cs := hawaii.NewCostSim(cfg)
	ops := hawaii.ScheduleFromNetwork(net, specs, tile.Intermittent, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.Run(ops, tile.Intermittent, power.WeakPower, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleBuild(b *testing.B) {
	net := models.SQN(1)
	cfg := tile.DefaultConfig()
	specs := tile.SpecsFromNetwork(net, cfg)
	tile.InstallMasks(net, specs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := hawaii.ScheduleFromNetwork(net, specs, tile.Intermittent, cfg)
		if len(ops) == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// BenchmarkScheduleBuildHAR builds the schedule of the HAR model, the one
// the prune and fleet-soak workloads schedule.
func BenchmarkScheduleBuildHAR(b *testing.B) {
	net := models.HAR(1)
	cfg := tile.DefaultConfig()
	specs := tile.SpecsFromNetwork(net, cfg)
	tile.InstallMasks(net, specs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := hawaii.ScheduleFromNetwork(net, specs, tile.Intermittent, cfg)
		if len(ops) == 0 {
			b.Fatal("empty schedule")
		}
	}
}

func BenchmarkSensitivityAnalysis(b *testing.B) {
	if testing.Short() {
		b.Skip("training-backed")
	}
	net, _, val := ablationNet(b, 29)
	p := core.NewPruner(core.AccOutputs{})
	p.Opt.SenseSamples = 24
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One full pruning iteration's criterion estimation path.
		cfg := tile.DefaultConfig()
		specs := tile.SpecsFromNetwork(net, cfg)
		scores := p.Crit.LayerScores(net, specs, cfg, &p.Dev)
		if len(scores) == 0 {
			b.Fatal("no scores")
		}
		_ = val
	}
}

// BenchmarkAblationWeightSharing contrasts the two compression axes: a
// 50% block prune cuts accelerator outputs (and with them intermittent
// latency) while 4-bit weight sharing cuts storage but not outputs —
// the distinction motivating intermittent-aware pruning.
func BenchmarkAblationWeightSharing(b *testing.B) {
	cfg := tile.DefaultConfig()
	for i := 0; i < b.N; i++ {
		prunedNet := models.HAR(9)
		sharedNet := models.HAR(9)
		for _, net := range []*nn.Network{prunedNet, sharedNet} {
			specs := tile.SpecsFromNetwork(net, cfg)
			tile.InstallMasks(net, specs)
		}
		core.OneShotBlocks(prunedNet, 0.5)
		if _, err := iprune.ShareWeights(sharedNet, 4, 1); err != nil {
			b.Fatal(err)
		}
		ps := tile.SpecsFromNetwork(prunedNet, cfg)
		ss := tile.SpecsFromNetwork(sharedNet, cfg)
		prunedJobs := tile.CountNetwork(prunedNet, ps, tile.Intermittent, cfg).Jobs
		sharedJobs := tile.CountNetwork(sharedNet, ss, tile.Intermittent, cfg).Jobs
		if prunedJobs >= sharedJobs {
			b.Fatal("pruning must cut jobs; sharing must not")
		}
		if i == 0 {
			b.ReportMetric(float64(prunedJobs)/1000, "pruned_jobsK")
			b.ReportMetric(float64(sharedJobs)/1000, "shared_jobsK")
		}
	}
}

// BenchmarkDisciplineComparison contrasts HAWAII's job-level preservation
// with a SONIC/TAILS-style task-level discipline (paper Section I): the
// coarse discipline re-executes whole tasks after each failure, so the
// job-level engine wins under harvested power.
func BenchmarkDisciplineComparison(b *testing.B) {
	net := models.HAR(1)
	cfg := tile.DefaultConfig()
	specs := tile.SpecsFromNetwork(net, cfg)
	tile.InstallMasks(net, specs)
	cs := hawaii.NewCostSim(cfg)
	jobOps := hawaii.ScheduleFromNetwork(net, specs, tile.Intermittent, cfg)
	tasks := hawaii.TaskScheduleFromNetwork(net, specs, cfg)
	for i := 0; i < b.N; i++ {
		for _, sup := range report.Supplies() {
			job, err := cs.Run(jobOps, tile.Intermittent, sup, 1)
			if err != nil {
				b.Fatal(err)
			}
			task, err := cs.Run(tasks, tile.Intermittent, sup, 1)
			if err != nil {
				b.Fatal(err)
			}
			if !sup.Continuous && task.Latency <= job.Latency {
				b.Fatalf("task-level should lose under %s power", sup.Name)
			}
			if i == 0 {
				b.ReportMetric(task.Latency/job.Latency, sup.Name+"_task_vs_job_x")
			}
		}
	}
}

// BenchmarkLintRepo is the `iprunelint ./...` rung: a cold loader
// parses and type-checks this checkout and the standard-library
// packages it imports, then every analyzer runs over it.
func BenchmarkLintRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l, err := analysis.NewLoader(".", "")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := l.Load("./...")
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pkgs {
			if len(p.Errs) > 0 {
				b.Fatalf("%s: %v", p.Path, p.Errs[0])
			}
		}
		diags := analysis.Run(analysis.All(), pkgs, l.Directives())
		if i == 0 {
			b.ReportMetric(float64(len(pkgs)), "pkgs")
			b.ReportMetric(float64(len(diags)), "findings")
		}
	}
}
