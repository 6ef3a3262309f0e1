package adaptive

import (
	"testing"

	"iprune/internal/core"
	"iprune/internal/models"
	"iprune/internal/tile"
)

// variantsForTest builds three HAR variants at increasing one-shot prune
// depth (accuracy labels are synthetic: deeper prune, lower accuracy).
func variantsForTest(t *testing.T) []Variant {
	t.Helper()
	var out []Variant
	for i, ratio := range []float64{0, 0.3, 0.6} {
		net := models.HAR(1)
		cfg := tile.DefaultConfig()
		specs := tile.SpecsFromNetwork(net, cfg)
		tile.InstallMasks(net, specs)
		if ratio > 0 {
			core.OneShotBlocks(net, ratio)
		}
		out = append(out, Variant{
			Name:     []string{"full", "mid", "small"}[i],
			Net:      net,
			Accuracy: 0.95 - 0.05*float64(i),
		})
	}
	return out
}

func TestSelectorOrdersByAccuracy(t *testing.T) {
	s, err := NewSelector(variantsForTest(t))
	if err != nil {
		t.Fatal(err)
	}
	vs := s.Variants()
	for i := 1; i < len(vs); i++ {
		if vs[i].Accuracy > vs[i-1].Accuracy {
			t.Fatal("variants not sorted by accuracy")
		}
	}
}

func TestEstimateMonotoneInPruning(t *testing.T) {
	s, err := NewSelector(variantsForTest(t))
	if err != nil {
		t.Fatal(err)
	}
	// Under fixed power, deeper pruning (lower accuracy rank) is faster.
	const p = 6e-3
	for i := 1; i < len(s.Variants()); i++ {
		if s.Estimate(i, p) >= s.Estimate(i-1, p) {
			t.Errorf("variant %d not faster than %d", i, i-1)
		}
	}
}

func TestPickPrefersAccuracyWhenPowerIsPlentiful(t *testing.T) {
	s, err := NewSelector(variantsForTest(t))
	if err != nil {
		t.Fatal(err)
	}
	d := s.Pick(2.0 /* continuous-class power */, 10.0 /* generous deadline */)
	if !d.Met || d.Index != 0 {
		t.Errorf("plentiful power should pick the most accurate variant: %+v", d)
	}
}

func TestPickDegradesUnderWeakPower(t *testing.T) {
	s, err := NewSelector(variantsForTest(t))
	if err != nil {
		t.Fatal(err)
	}
	// Find a deadline the full model misses at 4 mW but a pruned one meets.
	full := s.Estimate(0, 4e-3)
	small := s.Estimate(len(s.Variants())-1, 4e-3)
	if small >= full {
		t.Fatal("test premise broken: pruned variant not faster")
	}
	deadline := (small + full) / 2
	d := s.Pick(4e-3, deadline)
	if !d.Met {
		t.Fatalf("deadline %v should be achievable: %+v", deadline, d)
	}
	if d.Index == 0 {
		t.Error("weak power should have forced a pruned variant")
	}
}

func TestPickFallsBackToFastest(t *testing.T) {
	s, err := NewSelector(variantsForTest(t))
	if err != nil {
		t.Fatal(err)
	}
	d := s.Pick(4e-3, 1e-9) // impossible deadline
	if d.Met {
		t.Fatal("impossible deadline reported as met")
	}
	lastIdx := len(s.Variants()) - 1
	if d.Index != lastIdx {
		t.Errorf("fallback picked %d, want fastest %d", d.Index, lastIdx)
	}
}

func TestNewSelectorValidates(t *testing.T) {
	if _, err := NewSelector(nil); err == nil {
		t.Error("expected error for empty variant set")
	}
}

func TestNewSelectorRejectsWrongMaskGeometry(t *testing.T) {
	vs := variantsForTest(t)
	for _, p := range vs[1].Net.Prunables() {
		p.InitBlocks(1, 1)
	}
	if _, err := NewSelector(vs); err == nil {
		t.Fatal("variant with mismatched mask geometry accepted")
	}
}
