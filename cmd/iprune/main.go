// Command iprune trains and prunes one of the paper's TinyML models and
// writes the pruned model to disk.
//
// Usage:
//
//	iprune -model HAR -criterion iprune -out har-pruned.model
//	iprune -model HAR -power weak -trace pruned.json -metrics pruned.csv
//
// Flags:
//
//	-model NAME       SQN, HAR or CKS (default HAR)
//	-criterion NAME   iprune | eprune | macs | uniform (default iprune)
//	-in FILE          load a pretrained model instead of training
//	-out FILE         where to write the pruned model (default <model>-<criterion>.model)
//	-epochs N         pretraining epochs (default 8)
//	-iters N          max pruning iterations (default 6)
//	-epsilon F        recoverable accuracy-loss threshold (default 0.05)
//	-seed N           random seed (default 1)
//	-power NAME       supply for the post-pruning evaluation run
//	                  (continuous | strong | weak | <N>mW; default strong)
//	-trace FILE       write a Chrome trace-event JSON of one intermittent
//	                  inference of the pruned model under -power
//	-metrics FILE     write per-layer metrics CSV of that inference
//	-v                print the per-layer summary of that inference
//	-diff             simulate one inference of the unpruned and the pruned
//	                  model under -power and print the per-layer delta
//	                  (latency, energy, preserves, re-executions)
//	-diffcsv FILE     write that delta as long-form CSV
//	-cpuprofile FILE  write a runtime/pprof CPU profile of training+pruning
//	-memprofile FILE  write a heap profile taken after pruning
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"iprune"
)

func main() {
	model := flag.String("model", "HAR", "model name: SQN, HAR or CKS")
	criterion := flag.String("criterion", "iprune", "pruning criterion: iprune|eprune|macs|uniform")
	in := flag.String("in", "", "pretrained model file (skips training)")
	out := flag.String("out", "", "output model file")
	epochs := flag.Int("epochs", 8, "pretraining epochs")
	iters := flag.Int("iters", 6, "max pruning iterations")
	epsilon := flag.Float64("epsilon", 0.05, "recoverable accuracy-loss threshold")
	seed := flag.Int64("seed", 1, "random seed")
	powerName := flag.String("power", "strong", "supply for the evaluation run: continuous|strong|weak or e.g. 6mW")
	tracePath := flag.String("trace", "", "write Chrome trace-event JSON of one pruned-model inference")
	metricsPath := flag.String("metrics", "", "write per-layer metrics CSV of one pruned-model inference")
	verbose := flag.Bool("v", false, "print per-layer summary of one pruned-model inference")
	diff := flag.Bool("diff", false, "print per-layer before/after pruning delta of one inference under -power")
	diffCSVPath := flag.String("diffcsv", "", "write the before/after pruning delta as long-form CSV")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of training+pruning to this file")
	memProfile := flag.String("memprofile", "", "write a post-pruning heap profile to this file")
	flag.Parse()

	var crit iprune.Criterion
	switch strings.ToLower(*criterion) {
	case "iprune":
		crit = iprune.CriterionAccOutputs
	case "eprune":
		crit = iprune.CriterionEnergy
	case "macs":
		crit = iprune.CriterionMACs
	case "uniform":
		crit = iprune.CriterionUniform
	default:
		log.Fatalf("unknown criterion %q", *criterion)
	}

	sup, err := iprune.ParseSupply(*powerName)
	if err != nil {
		log.Fatal(err)
	}

	ds, err := datasetFor(*model, *seed)
	if err != nil {
		log.Fatal(err)
	}

	// The profile window covers the compute that matters: training and
	// the prune/finetune loop.
	stopProf, err := iprune.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}

	var net *iprune.Network
	if *in != "" {
		net, err = iprune.LoadModel(*in)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %s (accuracy %.1f%%)\n", *in, 100*iprune.Accuracy(net, ds.Test))
	} else {
		net, err = iprune.BuildModel(*model, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("training %s for %d epochs...\n", *model, *epochs)
		iprune.TrainSGD(net, ds.Train, *epochs, 0.005, *seed)
		fmt.Printf("base accuracy %.1f%%\n", 100*iprune.Accuracy(net, ds.Test))
	}

	opts := iprune.DefaultPruneOptions()
	opts.MaxIters = *iters
	opts.Epsilon = *epsilon
	opts.FinetuneEpochs = 4
	opts.LR = 0.002
	opts.LRDecay = 0.85
	opts.GammaHat = 0.2
	opts.Seed = *seed
	opts.Logf = func(f string, a ...any) { fmt.Printf("  "+f+"\n", a...) }

	fmt.Printf("pruning with %s...\n", crit.Name())
	res, err := iprune.PruneWith(crit, net, ds.Train, ds.Test, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := stopProf(); err != nil {
		log.Fatal(err)
	}

	before, err := iprune.Stats(net)
	if err != nil {
		log.Fatal(err)
	}
	after, err := iprune.Stats(res.Net)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accuracy  %.1f%% -> %.1f%%\n", 100*res.BaseAccuracy, 100*res.Accuracy)
	fmt.Printf("size      %d KB -> %d KB\n", before.SizeBytes/1024, after.SizeBytes/1024)
	fmt.Printf("MACs      %d K -> %d K\n", before.MACs/1000, after.MACs/1000)
	fmt.Printf("acc. outs %d K -> %d K\n", before.AccOutputs/1000, after.AccOutputs/1000)

	path := *out
	if path == "" {
		path = fmt.Sprintf("%s-%s.model", strings.ToLower(*model), strings.ToLower(crit.Name()))
	}
	if err := iprune.SaveModel(path, res.Net, *seed); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)

	// Optional cross-run diff: one observed inference of the unpruned
	// network against one of the pruned result under the same supply and
	// seed, so the pruning story reads per layer (latency, energy,
	// preserves, re-executions) instead of only in the aggregate numbers
	// above. The pruner leaves its input network untouched, so `net` is
	// the before side.
	if *diff || *diffCSVPath != "" {
		observe := func(n *iprune.Network) *iprune.RunStats {
			rec := iprune.NewTraceRecorder()
			if _, err := iprune.SimulateObserved(n, sup, *seed, rec); err != nil {
				log.Fatal(err)
			}
			return iprune.CollectTrace(rec.Events())
		}
		d := iprune.DiffTrace(observe(net), observe(res.Net))
		names := iprune.PrunableLayerNames(res.Net)
		if *diff {
			fmt.Printf("pruning impact under %s (unpruned vs pruned):\n", sup.Name)
			if err := iprune.WriteTraceDiffTable(os.Stdout, d, names); err != nil {
				log.Fatal(err)
			}
		}
		if *diffCSVPath != "" {
			err := iprune.WriteArtifact(*diffCSVPath, func(w io.Writer) error {
				return iprune.WriteTraceDiffCSV(w, d, names)
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote diff %s\n", *diffCSVPath)
		}
	}

	// Optional observability pass: trace one intermittent inference of the
	// pruned model so the effect of pruning is visible per layer and per
	// power cycle, not just in the aggregate numbers above.
	if *tracePath == "" && *metricsPath == "" && !*verbose {
		return
	}
	rec := iprune.NewTraceRecorder()
	r, err := iprune.SimulateObserved(res.Net, sup, *seed, rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evaluation under %s: latency %.3fs, %d power cycles, %.2f mJ\n",
		sup.Name, r.Latency, r.Failures, r.Energy*1e3)
	names := iprune.PrunableLayerNames(res.Net)
	stats := iprune.CollectTrace(rec.Events())

	if *tracePath != "" {
		err := iprune.WriteArtifact(*tracePath, func(w io.Writer) error {
			return iprune.WriteChromeTrace(w, rec.Events(), names)
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote trace %s (%d events; open in https://ui.perfetto.dev)\n",
			*tracePath, len(rec.Events()))
	}
	if *metricsPath != "" {
		err := iprune.WriteArtifact(*metricsPath, func(w io.Writer) error {
			return iprune.WriteTraceCSV(w, stats, names)
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote metrics %s (%d layers)\n", *metricsPath, len(stats.Layers))
	}
	if *verbose {
		m := iprune.NewMetrics()
		stats.Fill(m)
		if err := iprune.ObserveModel(m, res.Net); err != nil {
			log.Fatal(err)
		}
		if err := iprune.WriteTraceSummary(os.Stdout, stats, m, names); err != nil {
			log.Fatal(err)
		}
	}
}

func datasetFor(model string, seed int64) (*iprune.Dataset, error) {
	cfg := iprune.DataConfig{Train: 256, Test: 128}
	switch model {
	case "SQN":
		cfg.Noise = 0.45
		return iprune.ImageData(cfg, seed), nil
	case "HAR":
		cfg.Noise = 0.35
		return iprune.HARData(cfg, seed), nil
	case "CKS":
		cfg.Noise = 0.5
		return iprune.SpeechData(cfg, seed), nil
	default:
		return nil, fmt.Errorf("unknown model %q", model)
	}
}
