package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"iprune/internal/core"
	"iprune/internal/dataset"
	"iprune/internal/device"
	"iprune/internal/hawaii"
	"iprune/internal/nn"
	"iprune/internal/power"
	"iprune/internal/quant"
	"iprune/internal/report"
	"iprune/internal/search"
	"iprune/internal/tile"
)

const (
	// pruneApp is the application the prune workload trains and prunes.
	pruneApp = "HAR"
	// pruneIters and pruneEpochs cap one op at a single
	// estimate–prune–retrain iteration with one fine-tune epoch, so that
	// a run holds enough ops for a median and a tail.
	pruneIters  = 1
	pruneEpochs = 1
	// pruneEpsilon turns the accuracy gate off: after a capped fine-tune
	// some seeds lose more than any fixed ε, and the pruner would then
	// return the unpruned model. With the gate off every op deploys the
	// network its one iteration pruned, whose accuracy deployed_acc
	// reports.
	pruneEpsilon = 1
)

// pruneOptions mirrors the report pipeline's quick-scale pruner settings,
// with the op's caps applied.
func pruneOptions(valSize int, seed int64) core.Options {
	sc := report.Quick
	o := core.DefaultOptions()
	o.MaxIters = pruneIters
	o.FinetuneEpochs = pruneEpochs
	o.Epsilon = pruneEpsilon
	o.LR = sc.LR * 0.4
	o.LRDecay = 0.85
	o.GammaHat = 0.2
	o.GammaCap = 0.35
	o.SenseSamples = max(24, int(float64(valSize)*sc.SenseFrac))
	o.Anneal = search.Config{Iters: sc.AnnealIters, T0: 1, T1: 1e-3}
	o.Seed = seed
	return o
}

// pruneCriterion alternates iPrune and ePrune across ops.
func pruneCriterion(i int) core.Criterion {
	if i%2 == 0 {
		return core.AccOutputs{}
	}
	return core.Energy{}
}

// evaluation is what the report pipeline derives from one model variant.
type evaluation struct {
	accQ    float64 // deployed Q15 accuracy on the test split
	jobs    int64   // intermittent-mode accelerator jobs
	weakLat float64 // simulated seconds of one inference under weak harvest
}

// evaluate deploys and evaluates a model the way the report pipeline
// evaluates a Table III variant: quantized deployment, float and Q15
// accuracy, job counts and a cost-simulated inference per supply.
func evaluate(t *tracer, net *nn.Network, ds *dataset.Dataset, cfg tile.Config, seed int64) (evaluation, error) {
	var ev evaluation
	var err error
	var specs []tile.LayerSpec
	t.timed("quant.deploy", func() {
		specs = tile.SpecsFromNetwork(net, cfg)
		_, err = quant.Deploy(net, specs)
	})
	if err != nil {
		return ev, fmt.Errorf("deploy: %w", err)
	}
	t.timed("nn.Accuracy/test", func() { nn.Accuracy(net, ds.Test) })
	t.timed("quant.AccuracyQ15", func() { ev.accQ = quant.AccuracyQ15(quant.QuantizeWeights(net), ds.Test) })
	t.timed("tile.CountNetwork", func() { ev.jobs = tile.CountNetwork(net, specs, tile.Intermittent, cfg).Jobs })
	t.timed("hawaii.eval", func() {
		cs := hawaii.NewCostSim(cfg)
		for _, sup := range report.Supplies() {
			var r hawaii.Result
			if r, err = cs.RunNetwork(net, specs, tile.Intermittent, sup, seed); err != nil {
				err = fmt.Errorf("cost sim under %s: %w", sup.Name, err)
				return
			}
			if sup.Name == power.WeakPower.Name {
				ev.weakLat = r.Latency
			}
		}
	})
	return ev, err
}

// checkPrune verifies a pruned variant against its base: fewer
// accelerator jobs and a lower simulated weak-harvest latency.
func checkPrune(base, pruned evaluation) error {
	if pruned.jobs >= base.jobs {
		return fmt.Errorf("pruned model has %d jobs, base %d", pruned.jobs, base.jobs)
	}
	if !(pruned.weakLat < base.weakLat) {
		return fmt.Errorf("pruned model's weak-harvest latency %.4g sim_s is not below the base's %.4g sim_s", pruned.weakLat, base.weakLat)
	}
	return nil
}

type pruneRunner struct {
	e     *env
	cfg   tile.Config
	ds    *dataset.Dataset
	base  *nn.Network // pretrained, block masks installed
	specs []tile.LayerSpec
	eval  evaluation // the base's evaluation

	acc, speedup []float64 // per completed op

	// Traced-run accumulators.
	iterMS, explained []float64
	iters0            int
	jobs0             int64
}

// setupPrune loads the data and pretrains the base model at quick scale,
// then evaluates the unpruned base once.
func setupPrune(e *env, t *tracer) (runner, error) {
	r := &pruneRunner{e: e, cfg: tile.DefaultConfig()}
	var err error
	t.timed("report.LoadData", func() { r.ds, err = report.LoadData(pruneApp, report.Quick, e.seed) })
	if err != nil {
		return nil, err
	}
	t.timed("report.Train", func() { r.base, _, err = report.Train(pruneApp, r.ds, report.Quick, e.seed) })
	if err != nil {
		return nil, err
	}
	r.specs = tile.SpecsFromNetwork(r.base, r.cfg)
	tile.InstallMasks(r.base, r.specs)
	if r.eval, err = evaluate(nil, r.base, r.ds, r.cfg, e.seed); err != nil {
		return nil, fmt.Errorf("base model: %w", err)
	}
	return r, nil
}

func (r *pruneRunner) close() {}

func (r *pruneRunner) op(i int, t *tracer) (time.Duration, error) {
	crit := pruneCriterion(i)
	p := core.NewPruner(crit)
	p.Cfg = r.cfg
	p.Opt = pruneOptions(len(r.ds.Test), mix(r.e.seed, i))
	var stamps []time.Duration
	var start time.Time
	if t != nil {
		p.Opt.Logf = func(string, ...any) { stamps = append(stamps, time.Since(start)) }
	}

	var res *core.Result
	var ev evaluation
	var err error
	top := t.begin("prune.op")
	t0 := time.Now()
	t.timed("core.Pruner.Run", func() {
		start = time.Now()
		res, err = p.Run(r.base, r.ds.Train, r.ds.Test)
	})
	if err == nil {
		ev, err = evaluate(t, res.Net, r.ds, r.cfg, r.e.seed)
	}
	d := time.Since(t0)
	t.end(top)
	if err != nil {
		return d, fmt.Errorf("%s op: %w", crit.Name(), err)
	}
	if err := checkPrune(r.eval, ev); err != nil {
		return d, fmt.Errorf("%s op: %w", crit.Name(), err)
	}
	r.acc = append(r.acc, ev.accQ)
	r.speedup = append(r.speedup, r.eval.weakLat/ev.weakLat)
	if t == nil {
		return d, nil
	}

	prev := time.Duration(0)
	for _, s := range stamps {
		r.iterMS = append(r.iterMS, ms(s-prev))
		prev = s
	}
	if i == 0 {
		r.iters0, r.jobs0 = res.Iterations, ev.jobs
	}
	r.replay(i, t, crit, p.Opt, res.Iterations, d)
	return d, nil
}

// replay times the units Pruner.Run repeats, on the op's base model with
// the op's settings, and models the op from them: one validation pass up
// front, then per iteration the criterion's scores, a sensitivity probe
// of one subset pass per prunable layer plus one, the fine-tune epochs,
// a validation pass and a job count.
func (r *pruneRunner) replay(i int, t *tracer, crit core.Criterion, o core.Options, iters int, op time.Duration) {
	dev := device.MSP430FR5994()
	scores := t.timed("core.LayerScores", func() { crit.LayerScores(r.base, r.specs, r.cfg, &dev) })
	work := r.base.Clone()
	rng := rand.New(rand.NewSource(o.Seed))
	epoch := t.timed("nn.TrainEpoch", func() { nn.TrainEpoch(work, r.ds.Train, nn.NewSGD(o.LR, o.Momentum), o.Batch, rng) })
	sense := t.timed("nn.Accuracy/sense", func() { nn.Accuracy(r.base, r.ds.Test[:min(o.SenseSamples, len(r.ds.Test))]) })
	val := t.timed("nn.Accuracy/val", func() { nn.Accuracy(r.base, r.ds.Test) })

	layers := time.Duration(len(r.base.Prunables()) + 1)
	count := durOf(t, "tile.CountNetwork", i)
	model := val + time.Duration(iters)*(scores+layers*sense+time.Duration(o.FinetuneEpochs)*epoch+val+count)
	evalPart := durOf(t, "quant.deploy", i) + durOf(t, "nn.Accuracy/test", i) + durOf(t, "quant.AccuracyQ15", i) + count + durOf(t, "hawaii.eval", i)
	r.explained = append(r.explained, float64(model+evalPart)/float64(op))
}

// durOf returns the duration of op i's last span called name.
func durOf(t *tracer, name string, op int) time.Duration {
	for k := len(t.spans) - 1; k >= 0; k-- {
		if s := t.spans[k]; s.op == op && s.name == name {
			return s.dur()
		}
	}
	return 0
}

func (r *pruneRunner) layers(t *tracer, m map[string]float64) {
	m["dataset.gen_ms"] = median(t.durs("report.LoadData"))
	m["nn.pretrain_ms"] = median(t.durs("report.Train"))
	m["nn.epoch_ms"] = median(t.durs("nn.TrainEpoch"))
	m["nn.accuracy_ms"] = median(t.durs("nn.Accuracy/sense"))
	m["core.prune_ms"] = median(t.durs("core.Pruner.Run"))
	m["core.iter_ms"] = median(r.iterMS)
	m["core.scores_ms"] = median(t.durs("core.LayerScores"))
	m["tile.count_ms"] = median(t.durs("tile.CountNetwork"))
	m["quant.deploy_ms"] = median(t.durs("quant.deploy"))
	m["hawaii.eval_ms"] = median(t.durs("hawaii.eval"))
	m["core.iters"] = float64(r.iters0)
	m["tile.jobs"] = float64(r.jobs0)
	m["core.deployed_acc"] = mean(r.acc)
	m["hawaii.sim_speedup_x"] = geomean(r.speedup)
	m["report.explained_frac"] = median(r.explained)
}

func (r *pruneRunner) report(w io.Writer) {
	fmt.Fprintf(w, "%-22s %12.4f fraction  mean Q15 test accuracy of %d pruned models (base %.4f)\n", "deployed_acc", mean(r.acc), len(r.acc), r.eval.accQ)
	fmt.Fprintf(w, "%-22s %12.4f x      geomean unpruned/pruned simulated weak-harvest latency (base %.4f sim_s)\n", "sim_speedup_x", geomean(r.speedup), r.eval.weakLat)
}
