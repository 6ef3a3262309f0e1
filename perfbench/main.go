// Command perfbench is the repository's benchmark. It runs one seeded
// workload in a closed loop (one op at a time) for a fixed number of
// seconds, checks every op's output, and prints the end-to-end metrics;
// with -trace 1 it instead records spans around its own calls into each
// layer, replays each op's lower rungs and prints the per-layer metrics.
//
// Usage:
//
//	perfbench -workload fleet-soak|prune|lint -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it print
// the host fingerprint and every metric by name and unit. All timings are
// host time: what this Go process spends. Quantities of the simulated
// MSP430 come from the simulators' own results and carry the unit sim_s
// or are counts. See README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is what every workload receives: its seed and where it may write.
type env struct {
	seed    int64
	dir     string // private scratch directory of this run
	workers int    // fan-out width: one per CPU
	stderr  io.Writer
}

// mix derives an independent seed for item i of a seeded stream
// (splitmix64 finalizer), so op i's inputs do not depend on how many ops
// ran before it.
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(int64(i)+1)*0xBF58476D1CE4E5B9
	z ^= z >> 31
	z *= 0x94D049BB133111EB
	z ^= z >> 29
	return int64(z >> 1)
}

// runner executes the measured ops of a set-up workload.
type runner interface {
	// op generates op i's inputs from the seed, runs it and checks its
	// outputs. It returns the host time of the program calls alone. With
	// a tracer it records spans around those calls and afterwards replays
	// the op's lower rungs for the per-layer metrics.
	op(i int, t *tracer) (time.Duration, error)
	// layers fills the per-layer metrics after a traced run.
	layers(t *tracer, m map[string]float64)
	// report prints the workload's own end-to-end lines.
	report(w io.Writer)
	close()
}

type workload struct {
	name  string
	setup func(e *env, t *tracer) (runner, error)
}

var workloads = []workload{
	{"fleet-soak", setupFleetSoak},
	{"prune", setupPrune},
	{"lint", setupLint},
}

// metricDef names one metric with its unit and direction. BENCHMARK.json
// lists the same metrics; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "op/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is every per-layer metric. A workload that bypasses a layer
// reports 0 for it.
var perLayer = []metricDef{
	{"fleet.explained_frac", "ratio", "higher"},
	{"fleet.replay_mismatches", "count", "lower"},
	{"pool.speedup", "x", "higher"},
	{"models.build_ms", "ms", "lower"},
	{"hawaii.schedule_ms", "ms", "lower"},
	{"dataset.gen_ms", "ms", "lower"},
	{"quant.probe_ms", "ms", "lower"},
	{"hawaii.costsim_us", "us", "lower"},
	{"obs.hub_us", "us", "lower"},
	{"obs.close_ms", "ms", "lower"},
	{"obs.events", "count", "lower"},
	{"obs.retained_mb", "MB", "lower"},
	{"hawaii.sim_ops", "count", "lower"},
	{"hawaii.sim_s", "sim_s", "lower"},
	{"power.recoveries", "count", "lower"},
	{"nn.pretrain_ms", "ms", "lower"},
	{"nn.epoch_ms", "ms", "lower"},
	{"nn.accuracy_ms", "ms", "lower"},
	{"core.prune_ms", "ms", "lower"},
	{"core.iter_ms", "ms", "lower"},
	{"core.scores_ms", "ms", "lower"},
	{"tile.count_ms", "ms", "lower"},
	{"quant.deploy_ms", "ms", "lower"},
	{"hawaii.eval_ms", "ms", "lower"},
	{"core.iters", "count", "lower"},
	{"tile.jobs", "count", "lower"},
	{"core.deployed_acc", "fraction", "higher"},
	{"hawaii.sim_speedup_x", "x", "higher"},
	{"report.explained_frac", "ratio", "higher"},
	{"analysis.load_ms", "ms", "lower"},
	{"analysis.run_ms", "ms", "lower"},
	{"analysis.stdlib_ms", "ms", "lower"},
	{"analysis.floatpurity_ms", "ms", "lower"},
	{"analysis.nvmdiscipline_ms", "ms", "lower"},
	{"analysis.hotalloc_ms", "ms", "lower"},
	{"analysis.errcheck_ms", "ms", "lower"},
	{"analysis.warhazard_ms", "ms", "lower"},
	{"analysis.parsafe_ms", "ms", "lower"},
	{"analysis.floatflow_ms", "ms", "lower"},
	{"analysis.allocflow_ms", "ms", "lower"},
	{"analysis.regionbudget_ms", "ms", "lower"},
	{"analysis.lockorder_ms", "ms", "lower"},
	{"analysis.goleak_ms", "ms", "lower"},
	{"analysis.reanalyzed", "count", "lower"},
	{"analysis.reused", "count", "higher"},
	{"analysis.findings", "count", "lower"},
	{"runtime.alloc_mb_per_op", "MB/op", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"cpu.fleet", "frac", "lower"},
	{"cpu.hawaii", "frac", "lower"},
	{"cpu.power", "frac", "lower"},
	{"cpu.obs", "frac", "lower"},
	{"cpu.quant", "frac", "lower"},
	{"cpu.fixed", "frac", "lower"},
	{"cpu.tensor", "frac", "lower"},
	{"cpu.nn", "frac", "lower"},
	{"cpu.core", "frac", "lower"},
	{"cpu.search", "frac", "lower"},
	{"cpu.tile", "frac", "lower"},
	{"cpu.analysis", "frac", "lower"},
	{"cpu.gotypes", "frac", "lower"},
	{"cpu.runtime", "frac", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

const (
	// setupReps is how often a run sets its workload up; setup_s is the
	// median, so that one slow set-up does not decide the figure.
	setupReps = 3
	// tracedShare is the share of -seconds the traced run spends on op
	// pairs (untraced and traced with replays); the rest runs untraced
	// ops under the CPU profiler.
	tracedShare = 0.6
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-soak, prune or lint")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "host seconds of measured ops")
	traceMode := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	workDir := fs.String("workdir", "", "directory for generated inputs and profiles (default: the system temp dir)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (fleet-soak|prune|lint), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	if *workDir != "" {
		if err := os.MkdirAll(*workDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	dir, err := os.MkdirTemp(*workDir, "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, dir: dir, workers: runtime.NumCPU(), stderr: stderr}

	h, _ := json.Marshal(fingerprint())
	fmt.Fprintf(stdout, "host %s\n", h)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", wl.name, *seed, *seconds, *traceMode)
	budget := time.Duration(*seconds * float64(time.Second))
	speed0 := readHostSpeed()
	var res *result
	if *traceMode == 0 {
		res, err = measure(wl, e, budget, stdout)
	} else {
		res, err = traced(wl, e, budget, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	speed1 := readHostSpeed()
	fmt.Fprintf(stdout, "host_speed calib_ms start %.3f end %.3f, steal %.4f of CPU time over the run\n",
		speed0.calibMS, speed1.calibMS, stealShare(speed0, speed1))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// loop runs ops first..., one at a time, until budget has elapsed (at
// least one of them), and returns their host times in ms and the number
// attempted and failed.
func loop(r runner, e *env, t *tracer, first int, budget time.Duration) (lat []float64, attempted, failed int) {
	deadline := time.Now().Add(budget)
	for i := first; attempted == 0 || time.Now().Before(deadline); i++ {
		if t != nil {
			t.op = i
		}
		d, err := r.op(i, t)
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(e.stderr, "op %d failed: %v\n", i, err)
			continue
		}
		lat = append(lat, ms(d))
	}
	return lat, attempted, failed
}

// measure is the end-to-end run: set up setupReps times, then run
// untraced ops for the budget.
func measure(wl *workload, e *env, budget time.Duration, w io.Writer) (*result, error) {
	var r runner
	var setups []float64
	for k := 0; k < setupReps; k++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = wl.setup(e, nil); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()

	start := time.Now()
	lat, attempted, failed := loop(r, e, nil, 0, budget)
	elapsed := time.Since(start).Seconds()

	tailMS, pct := tail(lat)
	m := map[string]float64{
		"setup_s":     median(setups),
		"ops_per_s":   float64(len(lat)) / elapsed,
		"op_p50_ms":   median(lat),
		"op_tail_ms":  tailMS,
		"peak_rss_mb": peakRSSMB(),
	}
	fmt.Fprintf(w, "%-22s %12.4f s      median of %d set-ups\n", "setup_s", m["setup_s"], setupReps)
	fmt.Fprintf(w, "%-22s %12.4f op/s   %d ops completed in %.2f s, one at a time\n", "ops_per_s", m["ops_per_s"], len(lat), elapsed)
	fmt.Fprintf(w, "%-22s %12.4f ms\n", "op_p50_ms", m["op_p50_ms"])
	fmt.Fprintf(w, "%-22s %12.4f ms     p%.1f of n=%d ops\n", "op_tail_ms", tailMS, pct, len(lat))
	fmt.Fprintf(w, "%-22s %12.4f MB\n", "peak_rss_mb", m["peak_rss_mb"])
	fmt.Fprintf(w, "%-22s %12.4f ratio  %d of %d ops failed\n", "fail_frac", float64(failed)/float64(attempted), failed, attempted)
	r.report(w)
	fmt.Fprintf(e.stderr, "op latencies (ms, in run order):")
	for _, l := range lat {
		fmt.Fprintf(e.stderr, " %.1f", l)
	}
	fmt.Fprintln(e.stderr)
	return newResult(attempted, failed, m, endToEnd), nil
}

// traced is the per-layer run. It sets up once, then runs each op i
// twice, untraced and traced with replays, for tracedShare
// of the budget (at least op 0, whose simulated and count metrics
// therefore repeat exactly per seed). The pairs give the tracing
// overhead op by op on the same inputs. Untraced ops under the CPU
// profiler fill the rest of the budget. The spans stay in memory until
// the end, when their summary goes to stderr.
func traced(wl *workload, e *env, budget time.Duration, w io.Writer) (*result, error) {
	t := newTracer()
	t.op = -1
	r, err := wl.setup(e, t)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	defer r.close()

	var overhead, uLat, tLat []float64
	attempted, failed, next := 0, 0, 0
	start := time.Now()
	deadline := start.Add(time.Duration(float64(budget) * tracedShare))
	for ; next == 0 || time.Now().Before(deadline); next++ {
		// A traced op ends with its replays, which leave the heap unlike
		// an untraced op does. Odd pairs run the traced op first, so both
		// ops of a pair follow the same kind of op: in even pairs an
		// untraced op, in odd pairs a replay.
		var du, dt time.Duration
		var errU, errT error
		plain := func() { du, errU = r.op(next, nil) }
		spanned := func() { t.op = next; dt, errT = r.op(next, t) }
		if next%2 == 0 {
			plain()
			spanned()
		} else {
			spanned()
			plain()
		}
		attempted += 2
		for _, err := range []error{errU, errT} {
			if err != nil {
				failed++
				fmt.Fprintf(e.stderr, "op %d failed: %v\n", next, err)
			}
		}
		if errU == nil && errT == nil {
			uLat, tLat = append(uLat, ms(du)), append(tLat, ms(dt))
			overhead = append(overhead, ms(dt-du))
		}
	}

	prof := filepath.Join(e.dir, "cpu.prof")
	f, err := os.Create(prof)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	rt0 := readRuntime()
	pLat, a, fl := loop(r, e, nil, next, budget-time.Since(start))
	rt1 := readRuntime()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	attempted += a
	failed += fl

	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	r.layers(t, m)
	if a > 0 {
		m["runtime.alloc_mb_per_op"] = (rt1.allocBytes - rt0.allocBytes) / float64(a) / (1 << 20)
	}
	if busy := rt1.busyCPU - rt0.busyCPU; busy > 0 {
		m["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / busy
	}
	shares, err := cpuShares(goTool(), prof)
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		m[k] = v
	}
	m["trace.overhead_ms"] = median(overhead)

	fmt.Fprintf(w, "op pairs %d (median untraced %.3f ms, traced %.3f ms), untraced profiled ops %d (median %.3f ms)\n",
		len(overhead), median(uLat), median(tLat), len(pLat), median(pLat))
	for _, d := range perLayer {
		fmt.Fprintf(w, "%-26s %14.6g %s\n", d.name, m[d.name], d.unit)
	}
	t.writeSummary(e.stderr)
	return newResult(attempted, failed, m, perLayer), nil
}

func newResult(attempted, failed int, m map[string]float64, defs []metricDef) *result {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}
