package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"iprune/internal/dataset"
	"iprune/internal/fleet"
	"iprune/internal/hawaii"
	"iprune/internal/models"
	"iprune/internal/nn"
	"iprune/internal/obs"
	"iprune/internal/power"
	"iprune/internal/quant"
	"iprune/internal/tile"
)

// round3 keeps generated times and powers short in the scenario JSON.
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

const (
	// soakHAR and soakCKS are the inference counts of a fleet-soak node
	// by model; a CKS inference costs about three HAR ones on the host.
	soakHAR = 500
	soakCKS = 170
	// soakDayS is the simulated length of a fleet-soak solar day; the
	// inferences finish well inside it.
	soakDayS   = 7200
	soakPeakMW = 10
	soakClouds = 3
	// probeSamples mirrors the fleet's deployed-accuracy probe size.
	probeSamples = 64
)

// soakScenario generates fleet-soak op i: one node per CPU, each running
// hundreds of inferences through a cloudy solar day. The HAR nodes also
// get three brownouts each; the CKS nodes get none, so that their
// replays must reproduce their results exactly.
func soakScenario(seed int64, i, nodes int) *fleet.Scenario {
	rng := rand.New(rand.NewSource(mix(seed, i)))
	sc := &fleet.Scenario{
		Name:        fmt.Sprintf("soak-%d", i),
		Description: "generated fleet-soak benchmark scenario",
		Seed:        rng.Int63n(1 << 30),
	}
	for k := 0; k < nodes; k++ {
		n := fleet.NodeSpec{ID: fmt.Sprintf("s%02d", k), Model: "HAR", Inferences: soakHAR, DeadlineS: soakDayS}
		if k%2 == 1 {
			n.Model, n.Inferences = "CKS", soakCKS
		}
		// Peak and cloud count are fixed so that every op sees about as
		// many power failures, and so as many events; the cloud layout
		// and the brownouts vary.
		n.Solar = &fleet.SolarSpec{PeakMW: soakPeakMW, DurationS: soakDayS, Clouds: soakClouds, Seed: rng.Int63n(1000)}
		sc.Nodes = append(sc.Nodes, n)
		for b := 0; n.Model == "HAR" && b < 3; b++ {
			sc.Events = append(sc.Events, fleet.EventSpec{
				AtS: round3(soakDayS * 0.5 * rng.Float64()), Node: n.ID, Action: "brownout",
				DurationS: round3(1 + 20*rng.Float64()),
			})
		}
	}
	sc.Assertions = holdingAssertions()
	return sc
}

// holdingAssertions returns assertions of every type that hold on any
// completed run, so each op evaluates them and a failure means a defect.
func holdingAssertions() []fleet.AssertSpec {
	zero, many := 0.0, 1e12
	return []fleet.AssertSpec{
		{Type: "accuracy-floor", Min: &zero},
		{Type: "max-recoveries", Max: &many},
		{Type: "deadline-hit-rate", Min: &zero},
	}
}

// checkFleet verifies one fleet.Run: every node completed its inferences
// without error, every assertion passed, and the rollup's failure count
// equals the sum of node recoveries.
func checkFleet(sc *fleet.Scenario, rep *fleet.Report) error {
	if len(rep.Nodes) != len(sc.Nodes) {
		return fmt.Errorf("%s: %d node results for %d nodes", sc.Name, len(rep.Nodes), len(sc.Nodes))
	}
	recov := 0
	for k, n := range rep.Nodes {
		if n.Err != nil {
			return fmt.Errorf("%s: node %s: %w", sc.Name, n.ID, n.Err)
		}
		if want := max(sc.Nodes[k].Inferences, 1); n.Inferences != want {
			return fmt.Errorf("%s: node %s completed %d of %d inferences", sc.Name, n.ID, n.Inferences, want)
		}
		recov += n.Recoveries
	}
	for _, c := range rep.Checks {
		if !c.Pass {
			return fmt.Errorf("%s: assertion %s failed: %s", sc.Name, c.Desc, c.Detail)
		}
	}
	if got := rep.Rollup().Counter("run/failures").Value(); got != float64(recov) {
		return fmt.Errorf("%s: rollup run/failures = %g, node recoveries sum to %d", sc.Name, got, recov)
	}
	if rep.Failed() {
		return fmt.Errorf("%s: report marked failed", sc.Name)
	}
	return nil
}

type fleetRunner struct {
	e *env

	// Traced-run accumulators.
	speedup, explained, closeMS, retainedMB, hubUS []float64
	mismatches                                     int
	counts                                         runCounts // op 0 only
}

// runCounts sums the simulated quantities of one fleet.Run, as the run
// itself reports them.
type runCounts struct {
	inferences, recoveries int
	ops, events            int64
	simS                   float64
}

// countRun reads the simulated counts off a report: node results for
// inferences, recoveries and simulated seconds, the rollup for the
// cost-sim ops, and the run's merged trace for its events.
func countRun(rep *fleet.Report) (runCounts, error) {
	var c runCounts
	for _, n := range rep.Nodes {
		c.inferences += n.Inferences
		c.recoveries += n.Recoveries
		c.simS += n.Latency
	}
	c.ops = int64(rep.Rollup().Counter("run/ops").Value())
	var ec eventCounter
	err := rep.WriteTrace(&ec)
	c.events = ec.n
	return c, err
}

// eventCounter counts the events of a Chrome trace as it is written:
// every "ph" field except those of "M" metadata records. String values
// are JSON-escaped, so the key cannot occur inside one.
type eventCounter struct {
	n    int64
	tail []byte // the last bytes of the previous write, so a key may span writes
}

var phKey = []byte(`"ph":"`)

func (c *eventCounter) Write(p []byte) (int, error) {
	buf := append(c.tail, p...)
	for off := 0; ; {
		k := bytes.Index(buf[off:], phKey)
		if k < 0 {
			break
		}
		at := off + k + len(phKey) // the phase letter
		if at >= len(buf) {
			break // decided by the next write, which sees the key again in tail
		}
		if buf[at] != 'M' {
			c.n++
		}
		off = at
	}
	keep := min(len(buf), len(phKey))
	c.tail = append(c.tail[:0], buf[len(buf)-keep:]...)
	return len(p), nil
}

// setupFleetSoak warms the process up with one unmeasured scenario of the
// workload's shape (op index -1), so lazy runtime set-up and heap growth
// are not charged to the first measured op.
func setupFleetSoak(e *env, t *tracer) (runner, error) {
	r := &fleetRunner{e: e}
	sc := r.scenario(-1)
	var rep *fleet.Report
	var err error
	t.timed("fleet.Run/warm-up", func() { rep, err = fleet.Run(sc, fleet.Options{Workers: e.workers}) })
	if err != nil {
		return nil, err
	}
	return r, checkFleet(sc, rep)
}

func (r *fleetRunner) scenario(i int) *fleet.Scenario { return soakScenario(r.e.seed, i, r.e.workers) }

func (r *fleetRunner) close() {}

func (r *fleetRunner) report(io.Writer) {}

func (r *fleetRunner) op(i int, t *tracer) (time.Duration, error) {
	sc := r.scenario(i)
	var rep *fleet.Report
	var err error
	d := t.timed("fleet.Run", func() { rep, err = fleet.Run(sc, fleet.Options{Workers: r.e.workers}) })
	if err != nil {
		return d, err
	}
	if err := checkFleet(sc, rep); err != nil {
		return d, err
	}
	if t == nil {
		return d, nil
	}
	if i == 0 {
		if r.counts, err = countRun(rep); err != nil {
			return d, err
		}
	}
	return d, r.replay(t, sc, rep, d)
}

// replay reruns a traced op's scenario at one worker, which must print
// the same summary and gives the base of pool.speedup and of the
// explained fraction, then replays every node's calls to price them.
func (r *fleetRunner) replay(t *tracer, sc *fleet.Scenario, rep *fleet.Report, d time.Duration) error {
	var rep1 *fleet.Report
	var err error
	d1 := t.timed("fleet.Run/workers=1", func() { rep1, err = fleet.Run(sc, fleet.Options{Workers: 1}) })
	if err != nil {
		return err
	}
	var a, b bytes.Buffer
	if err := rep.WriteSummary(&a); err != nil {
		return err
	}
	if err := rep1.WriteSummary(&b); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("%s: summary differs between %d workers and 1", sc.Name, r.e.workers)
	}
	r.speedup = append(r.speedup, float64(d1)/float64(d))

	plans := planNodes(sc)
	var explained time.Duration
	simTime := make([]time.Duration, len(plans))
	for k, p := range plans {
		rr, err := replayNode(p, t)
		if err != nil {
			return fmt.Errorf("%s: replay of node %s: %w", sc.Name, p.spec.ID, err)
		}
		simTime[k] = rr.simTime
		nr := rep.Nodes[k]
		if p.exact && (rr.recoveries != nr.Recoveries || rr.latency != nr.Latency || rr.energy != nr.Energy) {
			r.mismatches++
			fmt.Fprintf(r.e.stderr, "replay mismatch %s/%s: recoveries %d vs %d, latency %v vs %v, energy %v vs %v\n",
				sc.Name, nr.ID, rr.recoveries, nr.Recoveries, rr.latency, nr.Latency, rr.energy, nr.Energy)
			continue
		}
		explained += rr.explained
	}

	// Replay the power sims again into one Hub, as fleet.Run wires them,
	// to price the telemetry path and its memory.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	shards := min(r.e.workers, len(plans))
	hub := obs.NewHub(shards)
	devs := make([]*obs.HubDevice, len(plans))
	for k, p := range plans {
		devs[k] = hub.Device(p.spec.ID, nil)
	}
	var hubExtra time.Duration
	for k, p := range plans {
		rr, err := replaySims(p, t, devs[k])
		if err != nil {
			return err
		}
		extra := rr.simTime - simTime[k]
		hubExtra += extra
		r.hubUS = append(r.hubUS, float64(extra)/float64(time.Microsecond)/float64(rr.inferences))
	}
	closeD := t.timed("obs.Hub.Close", hub.Close)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(hub)
	r.closeMS = append(r.closeMS, ms(closeD))
	r.retainedMB = append(r.retainedMB, (float64(after.HeapAlloc)-float64(before.HeapAlloc))/(1<<20))
	r.explained = append(r.explained, float64(explained+hubExtra+closeD)/float64(d1))
	return nil
}

func (r *fleetRunner) layers(t *tracer, m map[string]float64) {
	m["fleet.explained_frac"] = median(r.explained)
	m["fleet.replay_mismatches"] = float64(r.mismatches)
	m["pool.speedup"] = median(r.speedup)
	m["models.build_ms"] = median(t.durs("models.ByName"))
	m["hawaii.schedule_ms"] = median(t.durs("hawaii.schedule"))
	m["dataset.gen_ms"] = median(t.durs("dataset.gen"))
	m["quant.probe_ms"] = median(t.durs("quant.probe"))
	m["hawaii.costsim_us"] = 1000 * median(t.durs("hawaii.RunWithSim"))
	m["obs.hub_us"] = median(r.hubUS)
	m["obs.close_ms"] = median(r.closeMS)
	m["obs.retained_mb"] = median(r.retainedMB)
	if n := float64(r.counts.inferences); n > 0 {
		m["obs.events"] = float64(r.counts.events) / n
		m["hawaii.sim_ops"] = float64(r.counts.ops) / n
		m["hawaii.sim_s"] = r.counts.simS / n
		m["power.recoveries"] = float64(r.counts.recoveries) / n
	}
}

// nodePlan is what a replay needs to rerun one fleet-soak node through
// the public calls fleet.Run makes for it.
type nodePlan struct {
	spec  fleet.NodeSpec
	seed  int64
	trace power.Trace // the solar profile without scripted events
	// exact is set when no event names the node, so the replay must
	// reproduce its NodeResult bit for bit.
	exact bool
}

// planNodes resolves each node's seed and solar profile the way the
// scenario format defines them. Replays leave out scripted events: a
// node that has any is replayed on its bare solar profile, which prices
// the same calls but is not expected to match.
func planNodes(sc *fleet.Scenario) []nodePlan {
	plans := make([]nodePlan, len(sc.Nodes))
	for k, spec := range sc.Nodes {
		p := nodePlan{spec: spec, seed: sc.Seed + int64(k), trace: solarTrace(spec.Solar), exact: true}
		if spec.Seed != nil {
			p.seed = *spec.Seed
		}
		for _, ev := range sc.Events {
			if ev.Node == spec.ID || ev.Node == "*" {
				p.exact = false
			}
		}
		plans[k] = p
	}
	return plans
}

// solarTrace is the power profile fleet.Run simulates for a solar node
// without events: power.SolarDay resampled with a near-vertical pre-edge
// sample before every knot and held one second past the last.
func solarTrace(s *fleet.SolarSpec) power.Trace {
	solar := power.SolarDay(s.PeakMW*1e-3, s.DurationS, s.Clouds, s.Seed)
	horizon := solar.Times[len(solar.Times)-1] + 1
	tr := power.Trace{Times: []float64{0}, Powers: []float64{solar.At(0)}}
	add := func(t float64) {
		if t > tr.Times[len(tr.Times)-1] && t < horizon {
			tr.Times = append(tr.Times, t)
			tr.Powers = append(tr.Powers, solar.At(t))
		}
	}
	for _, b := range solar.Times {
		add(b - math.Max(1e-9, b*1e-12))
		add(b)
	}
	tr.Times = append(tr.Times, horizon)
	tr.Powers = append(tr.Powers, solar.At(horizon))
	return tr
}

type replayResult struct {
	inferences, recoveries int
	latency, energy        float64
	simTime                time.Duration // host time of the RunWithSim calls
	explained              time.Duration // host time of every replayed call
}

// replayNode reruns one node's calls: build and schedule, one power sim
// with RunWithSim per inference, then the deployed-accuracy probe.
func replayNode(p nodePlan, t *tracer) (replayResult, error) {
	id := t.begin("fleet.replay")
	defer t.end(id)
	rr, err := replaySims(p, t, nil)
	if err != nil {
		return rr, err
	}
	d, err := probe(t, p.spec.Model, p.seed)
	rr.explained += d
	return rr, err
}

// replaySims reruns the node's schedule build and power simulation.
// With a hub device, events flow into it as fleet.Run wires them.
func replaySims(p nodePlan, t *tracer, dev *obs.HubDevice) (replayResult, error) {
	var rr replayResult
	sim, err := power.NewTraceSim(power.DefaultBuffer(), p.trace, p.seed)
	if err != nil {
		return rr, err
	}
	if dev != nil {
		sim.Trace = dev
	}
	cfg := tile.DefaultConfig()
	ops, d, err := schedule(t, p.spec.Model, p.seed, cfg)
	rr.explained += d
	if err != nil {
		return rr, err
	}
	for k := 0; k < p.spec.Inferences; k++ {
		cs := hawaii.NewCostSim(cfg)
		span := "hawaii.RunWithSim"
		if dev != nil {
			cs.Trace = &offsetTracer{dev: dev, dt: sim.OnTime + sim.OffTime}
			span = "hawaii.RunWithSim/hub" // kept apart from costsim_us's samples
		}
		var res hawaii.Result
		d := t.timed(span, func() { res, err = cs.RunWithSim(ops, tile.Intermittent, sim) })
		rr.simTime += d
		rr.explained += d
		rr.latency += res.Latency
		if err != nil {
			return rr, err
		}
		rr.inferences++
	}
	rr.recoveries = sim.Failures
	rr.energy = sim.EnergyUsed
	return rr, nil
}

// schedule builds a model's deployed accelerator-op schedule and returns
// the host time of the calls.
func schedule(t *tracer, model string, seed int64, cfg tile.Config) ([]hawaii.Op, time.Duration, error) {
	net, d, err := buildModel(t, model, seed)
	if err != nil {
		return nil, d, err
	}
	var ops []hawaii.Op
	d += t.timed("hawaii.schedule", func() {
		specs := tile.SpecsFromNetwork(net, cfg)
		tile.InstallMasks(net, specs)
		ops = hawaii.ScheduleFromNetwork(net, specs, tile.Intermittent, cfg)
	})
	return ops, d, nil
}

func buildModel(t *tracer, model string, seed int64) (*nn.Network, time.Duration, error) {
	var net *nn.Network
	var err error
	d := t.timed("models.ByName", func() { net, err = models.ByName(model, seed) })
	return net, d, err
}

// probe reruns the fleet's deployed-accuracy probe: a fresh model, its
// held-out split and a Q15 evaluation.
func probe(t *tracer, model string, seed int64) (time.Duration, error) {
	net, d, err := buildModel(t, model, seed)
	if err != nil {
		return d, err
	}
	var ds *dataset.Dataset
	d += t.timed("dataset.gen", func() { ds = probeData(model, seed) })
	d += t.timed("quant.probe", func() { quant.AccuracyQ15(quant.QuantizeWeights(net), ds.Test) })
	return d, nil
}

// probeData generates the probe's held-out split for the two models
// fleet-soak deploys.
func probeData(model string, seed int64) *dataset.Dataset {
	cfg, build := dataset.HARConfig(), dataset.HAR
	if model == "CKS" {
		cfg, build = dataset.SpeechConfig(), dataset.Speech
	}
	cfg.Train, cfg.Test = 1, probeSamples
	return build(cfg, seed)
}

// offsetTracer shifts cost-simulator events onto the node's power
// timeline, as fleet.Run does.
type offsetTracer struct {
	dev *obs.HubDevice
	dt  float64
}

func (o *offsetTracer) Enabled() bool { return o.dev.Enabled() }

func (o *offsetTracer) Emit(ev obs.Event) {
	ev.Time += o.dt
	o.dev.Emit(ev)
}
