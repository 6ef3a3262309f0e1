package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"

	"iprune/internal/dataset"
	"iprune/internal/energy"
	"iprune/internal/hawaii"
	"iprune/internal/models"
	"iprune/internal/nn"
	"iprune/internal/obs"
	"iprune/internal/pool"
	"iprune/internal/power"
	"iprune/internal/quant"
	"iprune/internal/tile"
)

// Options configures a scenario run.
type Options struct {
	// Workers is the fan-out width across a run's tasks (the calling
	// goroutine participates); <= 0 uses GOMAXPROCS. Results are
	// identical for any width: tasks share nothing but the scenario.
	Workers int
}

// NodeResult is the outcome of one node's run.
type NodeResult struct {
	ID         string
	Model      string // deployed model after any switch-model events
	Supply     string
	Switches   int // model switches applied
	Inferences int // inferences completed
	Recoveries int // power failures survived (= progress recoveries)
	// DeadlineHits / Deadlines: inferences that met the node's deadline
	// over those that owed one — inferences never run (after an error)
	// count as misses.
	DeadlineHits int
	Deadlines    int
	Latency      float64 // total simulated seconds, dark time included
	Energy       float64 // joules drawn over the whole run
	Accuracy     float64 // deployed (quantized) accuracy of the final model
	Err          error
}

// CheckResult is one evaluated assertion.
type CheckResult struct {
	Desc   string
	Pass   bool
	Detail string
}

// Report is the outcome of a fleet run: per-node results, evaluated
// assertions, and the merged telemetry of every node.
type Report struct {
	Scenario *Scenario
	Nodes    []NodeResult
	Checks   []CheckResult

	nodes []*node // compiled plans, simulated again by WriteTrace
	hub   *obs.Hub
}

// Run executes the scenario: every node simulates independently,
// telemetry flows through one obs.Hub, and the scenario's assertions are
// evaluated over the joined results. The work fans out Workers-wide as
// tasks: first one deployed-accuracy probe per distinct (model, seed) of
// the nodes without switch-model events, whose final model is known
// before simulating, then one simulation per node; a node whose final
// model no drawn probe covers probes it at the end of its own task. Each
// node's accuracy is joined afterwards from the probe of its final
// model. The returned error covers scenario-level problems only;
// per-node failures land in NodeResult.Err and flip Failed().
func Run(sc *Scenario, opts Options) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	nodes, err := compile(sc)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	hub := obs.NewHub(0)
	// Register every device before the fan-out, in node order, so the
	// rollup is independent of worker scheduling.
	devs := make([]*obs.HubDevice, len(nodes))
	for i, n := range nodes {
		devs[i] = hub.Device(n.spec.ID, nil)
	}
	keys, drawn := probeKeys(nodes)
	probes := make([]probe, len(keys))
	own := make([]probe, len(nodes)) // probes no drawn key covers
	results := make([]NodeResult, len(nodes))
	ran := make([]bool, len(nodes))
	// Probes take most of a run, so those whose model is known up front
	// are drawn first: the longest tasks start at once and the node
	// simulations fill the workers they leave idle. A switching node
	// learns its final model only by simulating and probes it in its
	// own task, so no probe is computed for a model a node only might
	// have deployed.
	task := func(t int) {
		if t < len(keys) {
			probes[t].acc, probes[t].err = deployedAccuracy(keys[t].model, keys[t].seed)
			return
		}
		i := t - len(keys)
		results[i], ran[i] = simulate(nodes[i], devs[i])
		if _, ok := drawn[probeKey{results[i].Model, nodes[i].seed}]; ran[i] && !ok {
			own[i].acc, own[i].err = deployedAccuracy(results[i].Model, nodes[i].seed)
		}
	}
	if err := pool.Run(context.Background(), workers, len(keys)+len(nodes), task); err != nil {
		return nil, err
	}
	hub.Close()
	for i := range results {
		if !ran[i] {
			continue // no final model to probe
		}
		r := &results[i]
		pr := own[i]
		if k, ok := drawn[probeKey{r.Model, nodes[i].seed}]; ok {
			pr = probes[k]
		}
		if pr.err == nil {
			r.Accuracy = pr.acc
		} else if r.Err == nil {
			r.Err = pr.err
		}
	}
	return &Report{
		Scenario: sc,
		Nodes:    results,
		Checks:   evalChecks(sc, results),
		nodes:    nodes,
		hub:      hub,
	}, nil
}

// probeKey identifies a deployed-accuracy probe: the model and the seed
// that builds its weights and held-out split.
type probeKey struct {
	model string
	seed  int64
}

// probe is the outcome of one deployedAccuracy call.
type probe struct {
	acc float64
	err error
}

// probeKeys lists, in node order, the distinct (model, seed) of the
// nodes without switch-model events: a run ends on those models, so
// their probes can be drawn before any simulation. index maps each key
// to its position.
func probeKeys(nodes []*node) (keys []probeKey, index map[probeKey]int) {
	index = make(map[probeKey]int)
	for _, n := range nodes {
		k := probeKey{n.spec.Model, n.seed}
		if _, ok := index[k]; len(n.switches) == 0 && !ok {
			index[k] = len(keys)
			keys = append(keys, k)
		}
	}
	return keys, index
}

// buildSchedule constructs the accelerator-op schedule for a model, as
// deployed (dense block masks installed).
func buildSchedule(model string, seed int64, cfg tile.Config) ([]hawaii.Op, error) {
	net, err := models.ByName(model, seed)
	if err != nil {
		return nil, err
	}
	specs := tile.SpecsFromNetwork(net, cfg)
	tile.InstallMasks(net, specs)
	return hawaii.ScheduleFromNetwork(net, specs, tile.Intermittent, cfg), nil
}

// accSamples sizes the held-out set for the deployed-accuracy probe:
// large enough to rank models, small enough that a fleet of nodes stays
// interactive.
const accSamples = 64

// deployedAccuracy evaluates the quantized model on its task's held-out
// split, seeded per node so the probe is deterministic.
func deployedAccuracy(model string, seed int64) (float64, error) {
	net, err := models.ByName(model, seed)
	if err != nil {
		return 0, err
	}
	var cfg dataset.Config
	var build func(dataset.Config, int64) *dataset.Dataset
	switch model {
	case "SQN":
		cfg, build = dataset.ImagesConfig(), dataset.Images
	case "HAR":
		cfg, build = dataset.HARConfig(), dataset.HAR
	case "CKS":
		cfg, build = dataset.SpeechConfig(), dataset.Speech
	default:
		return 0, fmt.Errorf("fleet: no dataset for model %q", model)
	}
	cfg.Train, cfg.Test = 1, accSamples
	ds := build(cfg, seed)
	// The probe is already one task of Run's fan-out: it runs at width 1.
	return nn.Evaluate(quant.QuantizeWeights(net), ds.Test, 1, quant.PredictorQ15), nil
}

// simulate runs one node's power and cost simulation: one power
// simulator spans every inference (failures and profile time carry
// across boundaries, and the device is switched off only after the
// last), the schedule is rebuilt at each switch-model boundary, and all
// events flow into tr on the simulator's clock. It is deterministic and
// leaves n untouched, so a second call emits the same events;
// WriteTrace relies on that. ran is false when a power simulator or
// schedule could not be built, leaving no final model to probe.
func simulate(n *node, tr obs.Tracer) (r NodeResult, ran bool) {
	r = NodeResult{ID: n.spec.ID, Model: n.spec.Model, Supply: n.label}
	if n.spec.DeadlineS > 0 {
		r.Deadlines = n.spec.Inferences
	}
	var sim *power.Sim
	if n.trace != nil {
		s, err := power.NewTraceSim(power.DefaultBuffer(), *n.trace, n.seed)
		if err != nil {
			r.Err = err
			return r, false
		}
		sim = s
	} else {
		sim = power.NewSim(power.DefaultBuffer(), n.supply, n.seed)
	}

	cfg := tile.DefaultConfig()
	ops, err := buildSchedule(r.Model, n.seed, cfg)
	if err != nil {
		r.Err = err
		return r, false
	}
	// One cost simulator runs every inference against the one power
	// simulator, whose clock stamps both their events.
	cs := &hawaii.CostSim{Cfg: cfg, Trace: tr}
	pending := n.switches
	var end float64 // node clock at the end of the last run
	for k := 0; k < n.spec.Inferences; k++ {
		now := sim.OnTime + sim.OffTime
		for len(pending) > 0 && pending[0].at <= now {
			sw := pending[0]
			pending = pending[1:]
			if sw.model == r.Model {
				continue
			}
			r.Model = sw.model
			r.Switches++
			if ops, err = buildSchedule(r.Model, n.seed, cfg); err != nil {
				r.Err = err
				return r, false
			}
		}
		res, err := cs.RunWithSim(ops, tile.Intermittent, sim)
		end = now + res.Latency
		r.Latency += res.Latency
		if err != nil {
			r.Err = err
			break
		}
		r.Inferences++
		if n.spec.DeadlineS > 0 && res.Latency <= n.spec.DeadlineS {
			r.DeadlineHits++
		}
	}
	// The node's power simulator stays on across inferences: the device
	// switches off once, when its last run ends, stamped as that run
	// stamps its own events.
	if len(ops) > 0 && tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.KindPowerOff, Time: end, Layer: -1, Op: -1})
	}
	r.Recoveries = sim.Failures
	r.Energy = sim.EnergyUsed
	return r, true
}

// Failed reports whether any node errored or any assertion failed.
func (r *Report) Failed() bool {
	for _, n := range r.Nodes {
		if n.Err != nil {
			return true
		}
	}
	for _, c := range r.Checks {
		if !c.Pass {
			return true
		}
	}
	return false
}

// Rollup returns the fleet-wide merged metrics.
func (r *Report) Rollup() *obs.Metrics { return r.hub.Rollup() }

// WriteTrace writes the run's Chrome trace, one process section per
// node, by simulating each node's power and cost again straight into
// the stream; the accuracy probe, which emits nothing, is not rerun.
// Node simulation is deterministic and independent of the run's worker
// count, so the bytes are the same at any width and on every call, and
// no event is held in memory.
func (r *Report) WriteTrace(w io.Writer) error {
	st := obs.NewStreamTracer(w, nil)
	for _, n := range r.nodes {
		st.NextProcess(n.spec.ID, nil)
		simulate(n, st)
	}
	return st.Close()
}

// WriteSummary renders the per-node summary lines, the fleet rollup and
// the assertion verdicts. The output is deterministic for a fixed
// scenario and seed, whatever the worker count.
func (r *Report) WriteSummary(w io.Writer) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "fleet %s: %d nodes, seed %d\n", r.Scenario.Name, len(r.Nodes), r.Scenario.Seed)
	for _, n := range r.Nodes {
		fmt.Fprintf(&b, "  %-12s model=%s supply=%s inf=%d/%d recov=%d",
			n.ID, n.Model, n.Supply, n.Inferences, pickInferences(r.Scenario, n.ID), n.Recoveries)
		if n.Deadlines > 0 {
			fmt.Fprintf(&b, " deadline=%d/%d", n.DeadlineHits, n.Deadlines)
		}
		fmt.Fprintf(&b, " lat=%.3fs energy=%s acc=%.3f", n.Latency, energy.FormatJ(n.Energy), n.Accuracy)
		if n.Switches > 0 {
			fmt.Fprintf(&b, " switches=%d", n.Switches)
		}
		if n.Err != nil {
			fmt.Fprintf(&b, " err=%v", n.Err)
		}
		b.WriteByte('\n')
	}
	m := r.Rollup()
	fmt.Fprintf(&b, "rollup: ops=%.0f cycles=%.0f failures=%.0f energy=%s\n",
		m.Counter("run/ops").Value(), m.Counter("run/power_cycles").Value(),
		m.Counter("run/failures").Value(), energy.FormatJ(m.Counter("run/energy_j").Value()))
	failed := 0
	for _, c := range r.Checks {
		verdict := "PASS"
		if !c.Pass {
			verdict, failed = "FAIL", failed+1
		}
		fmt.Fprintf(&b, "check %s %s: %s\n", verdict, c.Desc, c.Detail)
	}
	for _, n := range r.Nodes {
		if n.Err != nil {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(&b, "FAIL (%d problem(s))\n", failed)
	} else {
		fmt.Fprintf(&b, "PASS (%d nodes, %d checks)\n", len(r.Nodes), len(r.Checks))
	}
	_, err := w.Write(b.Bytes())
	return err
}

// pickInferences returns the configured inference count for a node (the
// denominator of the inf= column).
func pickInferences(sc *Scenario, id string) int {
	for _, n := range sc.Nodes {
		if n.ID == id {
			if n.Inferences <= 0 {
				return 1
			}
			return n.Inferences
		}
	}
	return 0
}
