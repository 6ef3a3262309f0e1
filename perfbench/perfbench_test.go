package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"iprune/internal/analysis"
	"iprune/internal/fleet"
)

func scenarioJSON(t *testing.T, sc *fleet.Scenario) string {
	t.Helper()
	b, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	for i := -1; i < 12; i++ {
		a, b := soakScenario(7, i, 2), soakScenario(7, i, 2)
		if scenarioJSON(t, a) != scenarioJSON(t, b) {
			t.Fatalf("soak op %d: same seed gave different scenarios", i)
		}
		if scenarioJSON(t, a) == scenarioJSON(t, soakScenario(8, i, 2)) {
			t.Errorf("soak op %d: seeds 7 and 8 gave the same scenario", i)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("soak op %d: %v", i, err)
		}
	}

	render := func(c *corpus) string {
		var b strings.Builder
		for _, f := range c.files {
			fmt.Fprintf(&b, "== %s\n%s", f.rel, f.render())
		}
		return b.String()
	}
	a, b := newCorpus(7), newCorpus(7)
	for i := 0; i < 20; i++ {
		if render(a) != render(b) {
			t.Fatalf("corpus differs after %d edits of the same seed", i)
		}
		if fa, fb := a.edit(7, i), b.edit(7, i); fa.rel != fb.rel {
			t.Fatalf("edit %d touched %s and %s", i, fa.rel, fb.rel)
		}
	}
	if render(newCorpus(7)) == render(newCorpus(8)) {
		t.Error("seeds 7 and 8 gave the same corpus")
	}

	if x, y := fmt.Sprintf("%+v", pruneOptions(76, mix(7, 3))), fmt.Sprintf("%+v", pruneOptions(76, mix(7, 3))); x != y {
		t.Error("prune options differ for the same seed")
	}
	if mix(7, 3) == mix(8, 3) || mix(7, 3) == mix(7, 4) {
		t.Error("mix does not separate seeds and op indices")
	}
}

// lintCorpus runs the lint workload's load-and-analyze step over r's
// corpus.
func lintCorpus(t *testing.T, r *lintRunner) []finding {
	t.Helper()
	got, _, _, err := r.lint(nil)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestPlantedFindingsMatchAnalyzers(t *testing.T) {
	dir := t.TempDir()
	r := &lintRunner{e: &env{seed: 3}, root: dir + "/lint", cacheDir: dir + "/cache", c: newCorpus(3)}
	if err := r.c.write(r.root); err != nil {
		t.Fatal(err)
	}
	want := r.c.expected()
	planted := map[string]bool{}
	for _, f := range want {
		planted[f.analyzer] = true
	}
	for _, p := range plantLine {
		if !planted[p.analyzer] {
			t.Errorf("seed 3 plants no %s finding", p.analyzer)
		}
	}
	if err := checkFindings(lintCorpus(t, r), want); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := writeFile(r.root, r.c.edit(3, i)); err != nil {
			t.Fatal(err)
		}
		if err := checkFindings(lintCorpus(t, r), r.c.expected()); err != nil {
			t.Fatalf("after edit %d: %v", i, err)
		}
	}
}

func TestChecksRejectBrokenResults(t *testing.T) {
	// Fleet: a node error, a short node and a failed assertion.
	sc := &fleet.Scenario{Name: "check", Seed: 5, Nodes: []fleet.NodeSpec{
		{ID: "a", Model: "HAR", Supply: "weak", Inferences: 2, DeadlineS: 60},
		{ID: "b", Model: "HAR", Supply: "6mW", Inferences: 1},
	}, Assertions: holdingAssertions()}
	rep, err := fleet.Run(sc, fleet.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFleet(sc, rep); err != nil {
		t.Fatalf("valid run rejected: %v", err)
	}
	rep.Nodes[0].Err = errors.New("brownout")
	if checkFleet(sc, rep) == nil {
		t.Error("node error accepted")
	}
	rep.Nodes[0].Err = nil
	rep.Nodes[1].Inferences--
	if checkFleet(sc, rep) == nil {
		t.Error("node with missing inferences accepted")
	}
	rep.Nodes[1].Inferences++
	rep.Checks[0].Pass = false
	if checkFleet(sc, rep) == nil {
		t.Error("failed assertion accepted")
	}

	// Lint: a missing, an extra and a repeated finding.
	want := []finding{{"floatpurity", "internal/fixed/f0.go", 4}, {"errcheck", "internal/store/s1.go", 9}}
	if err := checkFindings(append([]finding(nil), want...), want); err != nil {
		t.Fatalf("equal findings rejected: %v", err)
	}
	if err := checkFindings(want[:1], want); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing finding: got %v", err)
	}
	extra := append(append([]finding(nil), want...), finding{"hotalloc", "internal/kern/k0.go", 9})
	if err := checkFindings(extra, want); err == nil || !strings.Contains(err.Error(), "unexpected") {
		t.Errorf("extra finding: got %v", err)
	}
	if checkFindings([]finding{want[0], want[0], want[1]}, want) == nil {
		t.Error("repeated finding accepted")
	}
	moved := []finding{want[0], {"errcheck", "internal/store/s1.go", 10}}
	if checkFindings(moved, want) == nil {
		t.Error("finding on the wrong line accepted")
	}

	// Prune: more or as many jobs, or no simulated speed-up.
	base := evaluation{jobs: 100, weakLat: 2}
	if err := checkPrune(base, evaluation{jobs: 80, weakLat: 1.5}); err != nil {
		t.Fatalf("smaller model rejected: %v", err)
	}
	for _, bad := range []evaluation{{jobs: 120, weakLat: 1.5}, {jobs: 100, weakLat: 1.5}, {jobs: 80, weakLat: 2}} {
		if checkPrune(base, bad) == nil {
			t.Errorf("pruned %+v accepted against base %+v", bad, base)
		}
	}
}

func TestReplayReproducesNodesWithoutPowerEvents(t *testing.T) {
	sun := func(seed int64) *fleet.SolarSpec {
		return &fleet.SolarSpec{PeakMW: 9, DurationS: 300, Clouds: 2, Seed: seed}
	}
	sc := &fleet.Scenario{Name: "replay", Seed: 11, Nodes: []fleet.NodeSpec{
		{ID: "har", Model: "HAR", Solar: sun(4), Inferences: 3},
		{ID: "cks", Model: "CKS", Solar: sun(5), Inferences: 2},
		{ID: "storm", Model: "HAR", Solar: sun(6), Inferences: 2},
	}, Events: []fleet.EventSpec{
		{AtS: 0.05, Node: "storm", Action: "brownout", DurationS: 0.1},
	}}
	rep, err := fleet.Run(sc, fleet.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range planNodes(sc) {
		rr, err := replayNode(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := rep.Nodes[k]
		if p.exact != (n.ID != "storm") {
			t.Errorf("node %s: exact = %v", n.ID, p.exact)
		}
		if p.exact && (rr.recoveries != n.Recoveries || rr.latency != n.Latency || rr.energy != n.Energy) {
			t.Errorf("node %s: replay (%d, %v, %v) != result (%d, %v, %v)",
				n.ID, rr.recoveries, rr.latency, rr.energy, n.Recoveries, n.Latency, n.Energy)
		}
	}
}

func TestStats(t *testing.T) {
	xs := make([]float64, 25)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if v, p := tail(xs); v != 15 || p != 60 {
		t.Errorf("tail of 1..25 = %v at p%v, want 15 at p60", v, p)
	}
	if v, p := tail(xs[:5]); v != 25 || p != 100 {
		t.Errorf("tail of five samples = %v at p%v, want their max at p100", v, p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if g := geomean([]float64{1, 4}); g != 2 {
		t.Errorf("geomean = %v", g)
	}
	var ec eventCounter
	trace := `{"traceEvents":[{"name":"process_name","ph":"M"},{"name":"a","ph":"X"},{"name":"b","ph":"i"}]}`
	for k := range trace { // one byte per write: every key spans writes
		ec.Write([]byte(trace[k : k+1]))
	}
	if ec.n != 2 {
		t.Errorf("eventCounter counted %d events, want 2", ec.n)
	}
	if funcPackage("iprune/internal/hawaii.(*CostSim).RunWithSim") != "iprune/internal/hawaii" ||
		funcPackage("runtime.mallocgc") != "runtime" || funcPackage("go/types.(*Checker).expr") != "go/types" {
		t.Error("funcPackage misparses pprof symbols")
	}
}

// benchmarkFile mirrors the keys of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("workloads %v, perfbench has %v", names, have)
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, perfbench prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer differs from perfbench's table")
	}
	inTable := map[string]bool{}
	for _, d := range perLayer {
		inTable[d.name] = true
	}
	for _, a := range analysis.All() {
		if !inTable["analysis."+a.Name+"_ms"] {
			t.Errorf("analyzer %s has no per-layer metric", a.Name)
		}
	}
}
