// Package adaptive implements environment-adaptive model switching in
// the spirit of EVE (Islam et al., ICCAD 2022 — reference [8] of the
// paper): the deployment keeps several pruned variants of one network at
// different compression levels and, at run time, picks the most accurate
// variant whose expected intermittent inference latency meets a deadline
// under the currently harvested power.
//
// iPrune makes the variants; this package makes the choice. The latency
// estimates come from the same event-driven cost simulator the rest of
// the repository uses, so the switch decision and the evaluation agree
// by construction.
package adaptive

import (
	"fmt"
	"math"
	"sort"

	"iprune/internal/hawaii"
	"iprune/internal/nn"
	"iprune/internal/power"
	"iprune/internal/tile"
)

// Variant is one deployable model in the switchable set.
type Variant struct {
	Name     string
	Net      *nn.Network
	Accuracy float64 // measured accuracy of the variant
	schedule []hawaii.Op
}

// Selector picks variants by harvested power.
type Selector struct {
	cfg      tile.Config
	sim      *hawaii.CostSim
	variants []Variant
}

// NewSelector builds a selector over the given variants (at least one).
// Variants are deployed with the default engine configuration; their op
// schedules are precomputed once.
func NewSelector(variants []Variant) (*Selector, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("adaptive: no variants")
	}
	cfg := tile.DefaultConfig()
	s := &Selector{cfg: cfg, sim: hawaii.NewCostSim(cfg)}
	for _, v := range variants {
		specs := tile.SpecsFromNetwork(v.Net, cfg)
		if err := tile.EnsureMasks(v.Net, specs); err != nil {
			return nil, fmt.Errorf("adaptive: variant %s: %w", v.Name, err)
		}
		v.schedule = hawaii.ScheduleFromNetwork(v.Net, specs, tile.Intermittent, cfg)
		if len(v.schedule) == 0 {
			return nil, fmt.Errorf("adaptive: variant %s has an empty schedule", v.Name)
		}
		s.variants = append(s.variants, v)
	}
	// Most accurate first, so Pick can return the first that fits.
	sort.SliceStable(s.variants, func(a, b int) bool {
		return s.variants[a].Accuracy > s.variants[b].Accuracy
	})
	return s, nil
}

// Estimate returns the simulated end-to-end latency of variant i under
// the given harvested power (deterministic: jitter disabled so the
// decision is reproducible). A variant that cannot complete under the
// supply — an op exceeds the buffer — estimates as +Inf, so Pick never
// selects it while any completing variant exists.
func (s *Selector) Estimate(i int, harvestWatts float64) float64 {
	sup := power.Supply{Name: "estimate", Power: harvestWatts}
	if harvestWatts >= 1 {
		sup.Continuous = true
	}
	res, err := s.sim.Run(s.variants[i].schedule, tile.Intermittent, sup, 1)
	if err != nil {
		return math.Inf(1)
	}
	return res.Latency
}

// Decision reports what Pick chose and why.
type Decision struct {
	Variant  *Variant
	Index    int
	Latency  float64 // estimated seconds under the given power
	Deadline float64
	Met      bool // false: nothing met the deadline, fastest returned
}

// Pick returns the most accurate variant whose estimated latency under
// the given harvested power meets the deadline. If none fits, the
// fastest variant is returned with Met=false — degraded service beats
// none on a battery-less node.
func (s *Selector) Pick(harvestWatts, deadline float64) Decision {
	bestIdx, bestLat := -1, 0.0
	for i := range s.variants {
		lat := s.Estimate(i, harvestWatts)
		if lat <= deadline {
			return Decision{Variant: &s.variants[i], Index: i, Latency: lat, Deadline: deadline, Met: true}
		}
		if bestIdx < 0 || lat < bestLat {
			bestIdx, bestLat = i, lat
		}
	}
	return Decision{Variant: &s.variants[bestIdx], Index: bestIdx, Latency: bestLat, Deadline: deadline, Met: false}
}

// Variants exposes the selector's ordered variant list (most accurate
// first).
func (s *Selector) Variants() []Variant { return s.variants }
