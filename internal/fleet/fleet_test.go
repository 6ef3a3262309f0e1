package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"iprune/internal/obs"
)

func f(v float64) *float64 { return &v }

// testScenario builds a small but fully-featured fleet: plain supplies,
// a scripted brownout, a harvest change, a model switch and every
// assertion type.
func testScenario() *Scenario {
	return &Scenario{
		Name: "unit",
		Seed: 7,
		Nodes: []NodeSpec{
			{ID: "a", Model: "HAR", Supply: "strong", Inferences: 2, DeadlineS: 30},
			{ID: "b", Model: "HAR", Supply: "weak"},
			{ID: "c", Model: "CKS", Supply: "8mW"},
		},
		Events: []EventSpec{
			{AtS: 0.05, Node: "b", Action: "brownout", DurationS: 0.2},
			{AtS: 1.0, Node: "b", Action: "set-harvest", Supply: "6mW"},
			{AtS: 0, Node: "c", Action: "switch-model", Model: "HAR"},
		},
		Assertions: []AssertSpec{
			{Type: "accuracy-floor", Min: f(0.01)},
			{Type: "max-recoveries", Max: f(1e6)},
			{Type: "deadline-hit-rate", Node: "a", Min: f(0)},
		},
	}
}

func TestScenarioValidate(t *testing.T) {
	if err := testScenario().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	bad := []func(*Scenario){
		func(sc *Scenario) { sc.Name = "" },
		func(sc *Scenario) { sc.Nodes = nil },
		func(sc *Scenario) { sc.Nodes[1].ID = "a" },
		func(sc *Scenario) { sc.Nodes[0].Model = "nope" },
		func(sc *Scenario) { sc.Nodes[0].Supply = "alsono" },
		func(sc *Scenario) { sc.Nodes[0].Solar = &SolarSpec{PeakMW: 10, DurationS: 60} },
		func(sc *Scenario) { sc.Events[0].Node = "ghost" },
		func(sc *Scenario) { sc.Events[0].DurationS = 0 },
		func(sc *Scenario) { sc.Events[1].Supply = "continuous" },
		func(sc *Scenario) { sc.Events[2].Model = "zzz" },
		func(sc *Scenario) { sc.Assertions[0].Min = nil },
		func(sc *Scenario) { sc.Assertions[0].Min = f(1.5) },
		func(sc *Scenario) { sc.Assertions[1].Max = f(-1) },
		func(sc *Scenario) { sc.Assertions[2].Node = "b" }, // b has no deadline
		func(sc *Scenario) { sc.Assertions[2].Type = "weird" },
	}
	for i, mutate := range bad {
		sc := testScenario()
		mutate(sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("mutation %d: invalid scenario accepted", i)
		}
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"name":"x","seed":1,"typo_field":true,"nodes":[]}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestScriptTraceEdges pins the compiled power trace against the event
// script: harvest steps and brownout windows must reproduce exactly at
// the trace's linear interpolation.
func TestScriptTraceEdges(t *testing.T) {
	sc := &Scenario{
		Name: "edges", Seed: 1,
		Nodes: []NodeSpec{{ID: "n", Model: "HAR", Supply: "4mW"}},
		Events: []EventSpec{
			{AtS: 1, Node: "n", Action: "brownout", DurationS: 0.5},
			{AtS: 2, Node: "n", Action: "set-harvest", Supply: "8mW"},
		},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	nodes, err := compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	tr := nodes[0].trace
	if tr == nil {
		t.Fatal("event-scripted node compiled to a plain supply")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ t, want float64 }{
		{0, 4e-3},    // baseline
		{0.5, 4e-3},  // before the storm
		{1.0, 0},     // brownout start (right-continuous)
		{1.25, 0},    // mid-brownout
		{1.5, 4e-3},  // brownout end restores the baseline
		{2.0, 8e-3},  // harvest step
		{2.5, 8e-3},  // holds after the step
		{10.0, 8e-3}, // end clamp
	} {
		if got := tr.At(tc.t); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("At(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
	if nodes[0].label != "4mW+events" {
		t.Errorf("label = %q", nodes[0].label)
	}
}

func TestCompileSolarBaseline(t *testing.T) {
	sc := &Scenario{
		Name: "sun", Seed: 1,
		Nodes: []NodeSpec{{ID: "n", Model: "CKS",
			Solar: &SolarSpec{PeakMW: 10, DurationS: 120, Clouds: 2, Seed: 3}}},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	nodes, err := compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	tr := nodes[0].trace
	if tr == nil || nodes[0].label != "solar" {
		t.Fatalf("solar node compiled wrong: trace=%v label=%q", tr != nil, nodes[0].label)
	}
	// The solar knots must carry over: mid-day power is near peak.
	if p := tr.At(60); p <= 1e-3 {
		t.Errorf("mid-day solar power %g implausibly low", p)
	}
}

// TestRunDeterministicAcrossWorkers pins the tentpole's core contract:
// a fixed scenario+seed produces byte-identical summaries at any fan-out
// width.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	sc := testScenario()
	var outs []string
	for _, workers := range []int{1, 4} {
		rep, err := Run(sc, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := rep.WriteSummary(&b); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, b.String())
		if rep.Failed() {
			t.Fatalf("workers=%d: scenario unexpectedly failed:\n%s", workers, b.String())
		}
	}
	if outs[0] != outs[1] {
		t.Fatalf("summaries differ between -workers 1 and 4:\n--- 1:\n%s--- 4:\n%s", outs[0], outs[1])
	}
}

func TestRunResultsAndTrace(t *testing.T) {
	sc := testScenario()
	rep, err := Run(sc, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Nodes) != 3 || len(rep.Checks) != 3 {
		t.Fatalf("got %d nodes, %d checks", len(rep.Nodes), len(rep.Checks))
	}
	a, b, c := rep.Nodes[0], rep.Nodes[1], rep.Nodes[2]
	if a.Inferences != 2 || a.Deadlines != 2 {
		t.Errorf("node a: inf=%d deadlines=%d", a.Inferences, a.Deadlines)
	}
	if b.Recoveries == 0 {
		t.Error("weak-supply node b survived without a single recovery")
	}
	if c.Model != "HAR" || c.Switches != 1 {
		t.Errorf("node c switch-model not applied: model=%s switches=%d", c.Model, c.Switches)
	}
	for _, n := range rep.Nodes {
		if n.Err != nil {
			t.Errorf("%s: %v", n.ID, n.Err)
		}
		if n.Accuracy <= 0 || n.Latency <= 0 || n.Energy <= 0 {
			t.Errorf("%s: degenerate result %+v", n.ID, n)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("fleet trace is not valid JSON")
	}
	for _, id := range []string{"a", "b", "c"} {
		if !strings.Contains(buf.String(), `"`+id+`"`) {
			t.Errorf("trace missing a section for node %s", id)
		}
	}
	if ops := rep.Rollup().Counter("run/ops").Value(); ops <= 0 {
		t.Errorf("rollup ops = %g", ops)
	}
}

// genScenario generates a fleet with one node per telemetry shape — a
// plain jittered supply, a solar day with brownouts, a harvest change
// and a model switch — with the event script drawn from seed.
func genScenario(seed int64) *Scenario {
	rng := rand.New(rand.NewSource(seed))
	at := func(max float64) float64 { return math.Round(max*rng.Float64()*1000) / 1000 }
	sc := &Scenario{
		Name: fmt.Sprintf("gen-%d", seed), Seed: seed,
		Nodes: []NodeSpec{
			{ID: "weak", Model: "HAR", Supply: "weak", Inferences: 3},
			{ID: "solar", Model: "HAR", Inferences: 2,
				Solar: &SolarSpec{PeakMW: 10, DurationS: 60, Clouds: 2, Seed: rng.Int63n(1000)}},
			{ID: "harvest", Model: "HAR", Supply: "strong", Inferences: 3},
			{ID: "switch", Model: "HAR", Supply: "8mW", Inferences: 3},
		},
	}
	for b := 0; b < 3; b++ {
		sc.Events = append(sc.Events, EventSpec{AtS: 5 + at(10), Node: "solar", Action: "brownout", DurationS: 0.05 + at(1)})
	}
	sc.Events = append(sc.Events,
		EventSpec{AtS: at(0.5), Node: "harvest", Action: "set-harvest", Supply: "4mW"},
		EventSpec{AtS: at(0.3), Node: "switch", Action: "switch-model", Model: "CKS"},
	)
	return sc
}

// replay simulates node i of a run again into a recorder, the way
// WriteTrace regenerates its trace section.
func replay(rep *Report, i int) []obs.Event {
	rec := obs.NewRecorder()
	simulate(rep.nodes[i], rec)
	return rec.Events()
}

// TestNodeTimelineMonotonic pins the clock alignment between the
// cost-simulator's per-run clock and the node's global power timeline:
// events regenerated for one node never go backwards in time across
// inference boundaries, for a plain weak supply and for generated event
// scripts (solar with brownouts, a harvest change, a model switch).
func TestNodeTimelineMonotonic(t *testing.T) {
	weak := &Scenario{
		Name: "mono", Seed: 3,
		Nodes: []NodeSpec{{ID: "n", Model: "HAR", Supply: "weak", Inferences: 3}},
	}
	for _, sc := range []*Scenario{weak, genScenario(1), genScenario(2)} {
		rep, err := Run(sc, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range rep.Nodes {
			if n.Err != nil {
				t.Fatalf("%s/%s: %v", sc.Name, n.ID, n.Err)
			}
			evs := replay(rep, i)
			if len(evs) == 0 {
				t.Fatalf("%s/%s: no events regenerated", sc.Name, n.ID)
			}
			prev := 0.0
			for k, ev := range evs {
				if ev.Time < prev-1e-9 {
					t.Fatalf("%s/%s: event %d (%v) at %g s runs backwards (prev %g s)", sc.Name, n.ID, k, ev.Kind, ev.Time, prev)
				}
				if ev.Time > prev {
					prev = ev.Time
				}
			}
			if total := n.Latency; math.Abs(prev-total) > total*0.5 {
				t.Errorf("%s/%s: last event at %g s vs total latency %g s: clocks diverged", sc.Name, n.ID, prev, total)
			}
		}
	}
}

// hubMatchesCollect reports how a hub device's statistics and metrics
// differ from Collect and Fill over the same events, or "" if they
// match: the device keeps layers, totals and the event count, and folds
// its power cycles into its metrics rather than keeping them.
func hubMatchesCollect(d *obs.HubDevice, evs []obs.Event) string {
	got, want := d.Stats(), obs.Collect(evs)
	if !reflect.DeepEqual(got.Layers, want.Layers) || got.Total != want.Total || got.Events != want.Events {
		return fmt.Sprintf("stats %+v, Collect %+v", got, want)
	}
	if len(got.Cycles) != 0 {
		return fmt.Sprintf("kept %d power cycles", len(got.Cycles))
	}
	if n := d.Metrics().Counter("run/power_cycles").Value(); n != float64(len(want.Cycles)) {
		return fmt.Sprintf("run/power_cycles = %v, Collect has %d cycles", n, len(want.Cycles))
	}
	wantM := obs.NewMetrics()
	want.Fill(wantM)
	if g, w := dumpMetrics(d.Metrics()), dumpMetrics(wantM); g != w {
		return fmt.Sprintf("metrics\n%s\nFill(Collect(events))\n%s", g, w)
	}
	return ""
}

// dumpMetrics renders every counter and histogram of m in registration
// order, floats in their shortest round-trip form, so two registries
// render alike only if they match bit for bit.
func dumpMetrics(m *obs.Metrics) string {
	var b strings.Builder
	for _, c := range m.Counters() {
		fmt.Fprintf(&b, "%s=%v\n", c.Name, c.Value())
	}
	for _, h := range m.Histograms() {
		fmt.Fprintf(&b, "%s %v %v sum=%v n=%d\n", h.Name, h.Bounds, h.Counts, h.Sum, h.N)
	}
	return b.String()
}

// timelineScenario decodes a fuzz input into a one-node scenario. The
// first byte of script picks 1–5 inferences, the model (HAR or CKS) and
// the supply (weak, or a 10 mW solar day with seeded clouds); each
// following 3 bytes add one event, up to 8: a brownout, a harvest change
// or a model switch, at a time in the first 20 s and with a length,
// level or model drawn from the other bytes.
func timelineScenario(seed int64, script []byte) *Scenario {
	var head byte
	if len(script) > 0 {
		head, script = script[0], script[1:]
	}
	n := NodeSpec{ID: "n", Model: "HAR", Supply: "weak", Inferences: 1 + int(head%5)}
	if head/5%2 == 1 {
		n.Model = "CKS"
	}
	if head/10%2 == 1 {
		n.Supply, n.Solar = "", &SolarSpec{PeakMW: 10, DurationS: 120, Clouds: 2, Seed: seed % 1000}
	}
	sc := &Scenario{Name: "timeline", Seed: seed, Nodes: []NodeSpec{n}}
	for k := 0; k+3 <= len(script) && k < 3*8; k += 3 {
		a, b, c := script[k], script[k+1], script[k+2]
		ev := EventSpec{AtS: float64(b) * 0.08, Node: "n"}
		switch a % 3 {
		case 0:
			ev.Action, ev.DurationS = "brownout", 0.05+float64(c)*0.02
		case 1:
			ev.Action, ev.Supply = "set-harvest", fmt.Sprintf("%dmW", 2+int(c)%15)
		case 2:
			ev.Action, ev.Model = "switch-model", []string{"HAR", "CKS"}[c%2]
		}
		sc.Events = append(sc.Events, ev)
	}
	return sc
}

// FuzzNodeTimeline simulates one node under a generated event script
// (timelineScenario) and checks the events WriteTrace would regenerate
// for it: time never decreases, beyond rounding (the cost and power
// simulators sum the same spans in different orders, so their stamps
// differ in the last bits); power-on and power-off alternate,
// starting on and ending off; no op commits while the device is off;
// and a Hub device fed the same run holds the layers, totals, event
// count and metrics (counters, histogram counts and sums, bit for bit)
// of Collect and Fill over the events.
func FuzzNodeTimeline(f *testing.F) {
	f.Add(int64(3), []byte{2})                                     // weak HAR, 3 inferences
	f.Add(int64(7), []byte{4, 1, 60, 200})                         // weak HAR, 5 inferences, harvest change
	f.Add(int64(11), []byte{11, 0, 30, 40, 0, 90, 10, 0, 150, 90}) // solar HAR, 2 inferences, brownouts
	f.Add(int64(5), []byte{1, 2, 5, 1, 2, 12, 0})                  // weak HAR to CKS and back
	f.Add(int64(9), []byte{16, 0, 20, 255, 1, 80, 0})              // solar CKS, brownout, harvest change
	f.Add(int64(1), []byte{})                                      // one weak HAR inference
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		sc := timelineScenario(seed, script)
		if err := sc.Validate(); err != nil {
			t.Fatalf("generated scenario is invalid: %v", err)
		}
		nodes, err := compile(sc)
		if err != nil {
			t.Fatal(err)
		}
		hub := obs.NewHub(0)
		d := hub.Device("n", nil)
		r, ran := simulate(nodes[0], d)
		hub.Close()
		if !ran || r.Err != nil {
			t.Fatalf("node did not run: %v", r.Err)
		}
		rec := obs.NewRecorder()
		simulate(nodes[0], rec)
		evs := rec.Events()
		prev, powered, ons := 0.0, false, 0
		for k, ev := range evs {
			if ev.Time < prev*(1-1e-9) {
				t.Fatalf("event %d (%v) at %v s runs backwards from %v s", k, ev.Kind, ev.Time, prev)
			}
			prev = max(prev, ev.Time)
			switch ev.Kind {
			case obs.KindPowerOn:
				if powered {
					t.Fatalf("event %d: power-on at %v s while on", k, ev.Time)
				}
				powered = true
				ons++
			case obs.KindPowerOff:
				if !powered {
					t.Fatalf("event %d: power-off at %v s while off", k, ev.Time)
				}
				powered = false
			case obs.KindOpCommit:
				if !powered {
					t.Fatalf("event %d: op %d commits at %v s while off", k, ev.Op, ev.Time)
				}
			}
		}
		if ons == 0 || powered {
			t.Fatalf("%d power-ons, stream ends powered %v: want a run that ends off", ons, powered)
		}
		if ons != r.Recoveries+1 {
			t.Errorf("%d power-ons for %d recoveries", ons, r.Recoveries)
		}
		if diff := hubMatchesCollect(d, evs); diff != "" {
			t.Errorf("hub differs from Collect over the regenerated events: %s", diff)
		}
	})
}

// TestHubStatsMatchTrace pins that what the hub folds while a run emits
// is exactly what the trace WriteTrace regenerates gives: per node, the
// device's layers, totals, event count and metrics equal Collect and
// Fill over the node simulated again, and the event counts agree with
// the trace. The trace itself is the same at any worker count and on
// every call.
func TestHubStatsMatchTrace(t *testing.T) {
	smoke, err := Load("../../examples/fleet/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	gen := genScenario(7)
	for _, sc := range []*Scenario{smoke, gen} {
		var traces [][]byte
		for _, workers := range []int{1, 4} {
			rep, err := Run(sc, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			folded, layerStarts := 0, 0
			for i, d := range rep.hub.Devices() {
				evs := replay(rep, i)
				if diff := hubMatchesCollect(d, evs); diff != "" {
					t.Errorf("%s/%s: hub differs from Collect over the regenerated events: %s", sc.Name, d.Name, diff)
				}
				folded += d.Stats().Events
				for _, ev := range evs {
					if ev.Kind == obs.KindLayerStart {
						layerStarts++
					}
				}
			}
			var a, b bytes.Buffer
			if err := rep.WriteTrace(&a); err != nil {
				t.Fatal(err)
			}
			if err := rep.WriteTrace(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("%s: a second WriteTrace wrote different bytes", sc.Name)
			}
			// The trace renders each layer as one span at its layer-end,
			// so layer-start events are the only ones it leaves out.
			if got := traceEvents(t, a.Bytes()); got != folded-layerStarts {
				t.Errorf("%s: trace has %d events, hub folded %d (%d layer starts)", sc.Name, got, folded, layerStarts)
			}
			traces = append(traces, a.Bytes())
		}
		if !bytes.Equal(traces[0], traces[1]) {
			t.Errorf("%s: trace differs between Workers 1 and 4", sc.Name)
		}
	}
}

// traceEvents counts a Chrome trace's events, metadata records excluded.
func traceEvents(t *testing.T, raw []byte) int {
	t.Helper()
	var tr struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	n := 0
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "M" {
			n++
		}
	}
	return n
}

// fanoutScenario generates a fleet whose probes do not map one to one
// onto nodes: a switch-model event that fires after the first inference,
// one timed after its node has finished, a switch away and back to the
// initial model at one boundary, and two nodes that share an explicit
// seed and model. The seed draws the shared seed and the switch time.
func fanoutScenario(seed int64) *Scenario {
	rng := rand.New(rand.NewSource(seed))
	shared := 100 + rng.Int63n(1000)
	early := 0.001 + float64(rng.Intn(9))/1000 // before the first inference ends
	sc := &Scenario{
		Name: fmt.Sprintf("fanout-%d", seed), Seed: seed,
		Nodes: []NodeSpec{
			{ID: "fires", Model: "HAR", Supply: "8mW", Inferences: 2},
			{ID: "late", Model: "CKS", Supply: "strong", Inferences: 2},
			{ID: "back", Model: "HAR", Supply: "weak", Inferences: 2, Seed: &shared},
			{ID: "twin1", Model: "HAR", Supply: "strong", Seed: &shared},
			{ID: "twin2", Model: "HAR", Supply: "8mW", Seed: &shared},
		},
		Events: []EventSpec{
			{AtS: early, Node: "fires", Action: "switch-model", Model: "CKS"},
			{AtS: 1e6, Node: "late", Action: "switch-model", Model: "HAR"},
			{AtS: early, Node: "back", Action: "switch-model", Model: "CKS"},
			{AtS: early + 0.001, Node: "back", Action: "switch-model", Model: "HAR"},
		},
	}
	return sc
}

// TestRunFanOut pins the task fan-out: probes drawn up front only for
// the final models known before simulating, each node's accuracy joined
// from the probe of its final model, and the same summary at any width.
func TestRunFanOut(t *testing.T) {
	sc := fanoutScenario(5)
	nodes, err := compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Only the twins have no switch, and they share one probe; back ends
	// on the same (model, seed) and reuses it, fires and late probe their
	// own final models.
	keys, _ := probeKeys(nodes)
	if want := []probeKey{{"HAR", *sc.Nodes[3].Seed}}; !reflect.DeepEqual(keys, want) {
		t.Errorf("drawn probes %v, want %v", keys, want)
	}
	var want []byte
	for _, workers := range []int{1, 2, 3, 8} {
		rep, err := Run(sc, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := rep.WriteSummary(&b); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = b.Bytes()
			wantModel := map[string]string{"fires": "CKS", "late": "CKS", "back": "HAR", "twin1": "HAR", "twin2": "HAR"}
			wantSwitches := map[string]int{"fires": 1, "back": 2}
			for i, n := range rep.Nodes {
				if n.Err != nil {
					t.Fatalf("%s: %v", n.ID, n.Err)
				}
				if n.Model != wantModel[n.ID] || n.Switches != wantSwitches[n.ID] {
					t.Errorf("%s: final model %s after %d switches, want %s after %d",
						n.ID, n.Model, n.Switches, wantModel[n.ID], wantSwitches[n.ID])
				}
				acc, err := deployedAccuracy(n.Model, rep.nodes[i].seed)
				if err != nil {
					t.Fatal(err)
				}
				if n.Accuracy != acc {
					t.Errorf("%s: accuracy %v, direct probe of %s gives %v", n.ID, n.Accuracy, n.Model, acc)
				}
			}
		} else if !bytes.Equal(b.Bytes(), want) {
			t.Errorf("summary at Workers %d differs from Workers 1:\n%s--- want:\n%s", workers, b.Bytes(), want)
		}
	}
}

func TestFailingAssertionFlipsFailed(t *testing.T) {
	sc := &Scenario{
		Name: "strict", Seed: 1,
		Nodes: []NodeSpec{{ID: "w", Model: "HAR", Supply: "weak"}},
		Assertions: []AssertSpec{
			{Type: "max-recoveries", Max: f(0)}, // weak supply must violate this
		},
	}
	rep, err := Run(sc, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("recovery-heavy run passed a max-recoveries=0 assertion")
	}
	var b bytes.Buffer
	if err := rep.WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "check FAIL") || !strings.Contains(b.String(), "FAIL (") {
		t.Errorf("summary does not surface the failure:\n%s", b.String())
	}
}

// FuzzParseScenario: any input parses to a scenario that validates, or
// to an error; none panics.
func FuzzParseScenario(f *testing.F) {
	smoke, err := os.ReadFile("../../examples/fleet/smoke.json")
	if err != nil {
		f.Fatal(err)
	}
	unit, err := json.Marshal(testScenario())
	if err != nil {
		f.Fatal(err)
	}
	for _, in := range []string{string(smoke), string(unit), "", "{}", `{"name":"x","nodes":[{"id":"a","model":"HAR","supply":"5e-324mW"}]}`} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sc, err := Parse(strings.NewReader(in))
		if (sc == nil) == (err == nil) {
			t.Fatalf("Parse returned scenario %v and error %v", sc != nil, err)
		}
		if sc != nil {
			if err := sc.Validate(); err != nil {
				t.Fatalf("Parse accepted a scenario that fails Validate: %v", err)
			}
		}
	})
}

// BenchmarkFleetNodeHAR is the one-node fleet rung: one node shaped like
// a fleet-soak HAR node (10 mW solar peak over a 7,200 s day with 3
// clouds, 500 inferences) simulated into a Hub device. It covers the
// node's model and schedule build, its power and cost simulation and
// the Hub's fold, but not the accuracy probe.
func BenchmarkFleetNodeHAR(b *testing.B) {
	const inferences = 500
	sc := &Scenario{
		Name: "node", Seed: 7,
		Nodes: []NodeSpec{{ID: "har", Model: "HAR", Inferences: inferences,
			Solar: &SolarSpec{PeakMW: 10, DurationS: 7200, Clouds: 3, Seed: 7}}},
	}
	nodes, err := compile(sc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hub := obs.NewHub(0)
		r, _ := simulate(nodes[0], hub.Device("har", nil))
		hub.Close()
		if r.Err != nil || r.Inferences != inferences {
			b.Fatalf("node ran %d of %d inferences: %v", r.Inferences, inferences, r.Err)
		}
	}
	b.ReportMetric(inferences, "inferences/op")
}
