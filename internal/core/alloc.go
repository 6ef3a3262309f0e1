package core

import (
	"math"
	"math/rand"
	"sort"

	"iprune/internal/nn"
	"iprune/internal/search"
)

// layerState is what the allocator knows about one prunable layer at the
// start of an iteration.
type layerState struct {
	weights   int       // remaining (unpruned) weight elements kᵢ
	score     float64   // criterion score (e.g. accelerator outputs)
	sens      float64   // normalized sensitivity from the analysis step
	rmsPrefix []float64 // prefix sums of sorted kept-block RMS values
	blockW    []int     // weights of the kept blocks, in the same order
	wPrefix   []int     // prefix sums of blockW
}

// impact returns the estimated accuracy impact of pruning ratio γ of the
// layer's remaining weights: the RMS mass of the removed (lowest-RMS)
// blocks as a fraction of the layer's total RMS mass [20].
func (ls *layerState) impact(gamma float64) float64 {
	nb := len(ls.blockW)
	if nb == 0 || ls.rmsPrefix[nb] == 0 {
		return 0
	}
	return ls.rmsPrefix[ls.blocksFor(gamma)] / ls.rmsPrefix[nb]
}

// blocksFor returns how many lowest-RMS blocks fit within ratio γ (the
// largest count whose cumulative weight stays at or below γ·kᵢ). Floor
// semantics matter: on layers with few, large blocks a small allocated
// ratio must prune nothing rather than round up to half the layer.
func (ls *layerState) blocksFor(gamma float64) int {
	if gamma <= 0 || len(ls.blockW) == 0 {
		return 0
	}
	target := int(gamma * float64(ls.weights))
	// First index whose cumulative weight exceeds the target equals the
	// count of blocks that fit within it.
	k := sort.SearchInts(ls.wPrefix[1:], target+1)
	if k > len(ls.blockW) {
		k = len(ls.blockW)
	}
	return k
}

// newLayerState captures a prunable layer: kept blocks sorted by RMS
// ascending, with weight-count and RMS prefix sums for O(log n) lookups
// during annealing.
func newLayerState(p nn.Prunable, score, sens float64) *layerState {
	mask := p.Mask()
	w, _, _ := p.WeightMatrix()
	type blk struct {
		rms float64
		nw  int
		id  int
	}
	var blocks []blk
	for b, keep := range mask.Keep {
		if !keep {
			continue
		}
		blocks = append(blocks, blk{rms: mask.BlockRMS(w, b), nw: mask.BlockWeights(b), id: b})
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].rms < blocks[j].rms })
	ls := &layerState{weights: mask.KeptWeights(), score: score, sens: sens}
	ls.rmsPrefix = make([]float64, len(blocks)+1)
	ls.wPrefix = make([]int, len(blocks)+1)
	ls.blockW = make([]int, len(blocks))
	for i, b := range blocks {
		ls.rmsPrefix[i+1] = ls.rmsPrefix[i] + b.rms
		ls.wPrefix[i+1] = ls.wPrefix[i] + b.nw
		ls.blockW[i] = b.nw
	}
	return ls
}

// sortedKeptBlocks returns the kept block ids of a layer sorted by RMS
// ascending (the block-selection order of guideline 3).
func sortedKeptBlocks(p nn.Prunable) []int {
	mask := p.Mask()
	w, _, _ := p.WeightMatrix()
	var ids []int
	for b, keep := range mask.Keep {
		if keep {
			ids = append(ids, b)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		return mask.BlockRMS(w, ids[i]) < mask.BlockRMS(w, ids[j])
	})
	return ids
}

// applySensitivity normalizes measured per-layer sensitivities into the
// layer states, flooring each at a fraction of the mean: a probe that
// showed no accuracy drop at ~10% pruning is evidence of local slack, not
// of immunity to arbitrary pruning, so no layer is ever free.
func applySensitivity(layers []*layerState, sens []float64) {
	if len(layers) == 0 {
		return
	}
	mean := 0.0
	for _, s := range sens {
		mean += s
	}
	mean /= float64(len(sens))
	floor := float64(0.25*mean) + 1e-3
	total := 0.0
	floored := make([]float64, len(sens))
	for i, s := range sens {
		floored[i] = math.Max(s, floor)
		total += floored[i]
	}
	for i := range layers {
		layers[i].sens = floored[i] / total
	}
}

// allocProblem is the simulated-annealing search space of guideline 2:
// states are per-layer ratio vectors γ with Σγᵢkᵢ = ΓK held invariant by
// the neighbour move. Energy balances the criterion left after pruning
// against the RMS accuracy impact, weighted by layer sensitivity.
type allocProblem struct {
	layers   []*layerState
	caps     []float64 // per-layer ceiling on γᵢ
	lambda   float64   // accuracy-impact weight
	scoreSum float64
}

func (ap *allocProblem) Energy(state []float64) float64 {
	var remain, impact float64
	for i, ls := range ap.layers {
		remain += float64(ls.score * (1 - state[i]))
		// Hyperbolic accuracy penalty: removing a small share of a
		// layer's RMS mass is cheap, removing most of it diverges, so
		// sensitive layers resist near-total pruning regardless of how
		// many criterion points they would yield.
		im := ls.impact(state[i])
		impact += ls.sens * im / (1.05 - im)
	}
	return remain/ap.scoreSum + float64(ap.lambda*impact)
}

func (ap *allocProblem) Neighbor(state, out []float64, rng *rand.Rand) {
	copy(out, state)
	if len(out) < 2 {
		return
	}
	a := rng.Intn(len(out))
	b := rng.Intn(len(out) - 1)
	if b >= a {
		b++
	}
	ka, kb := float64(ap.layers[a].weights), float64(ap.layers[b].weights)
	if ka == 0 || kb == 0 {
		return
	}
	// Move pruning mass (in weights) from layer b to layer a, bounded so
	// both ratios stay in [0, cap]: the Σγᵢkᵢ invariant is exact.
	maxUp := (ap.caps[a] - out[a]) * ka
	maxDown := out[b] * kb
	limit := math.Min(maxUp, maxDown)
	if limit <= 0 {
		return
	}
	m := rng.Float64() * limit
	out[a] += m / ka
	out[b] -= m / kb
}

// capFor bounds a layer's per-iteration ratio: never beyond the global
// ceiling, and never so far that the layer loses its last (highest-RMS)
// block — a fully pruned layer severs the network irrecoverably.
func capFor(ls *layerState, gammaCap float64) float64 {
	nb := len(ls.blockW)
	if nb <= 1 || ls.weights == 0 {
		return 0
	}
	most := float64(ls.wPrefix[nb-1]) / float64(ls.weights)
	return math.Min(gammaCap, most)
}

// allocate runs the annealer and returns the per-layer ratios. The
// initial state waterfills the Γ·K weight budget uniformly across layers,
// respecting per-layer caps; if the caps cannot absorb the whole budget,
// the realized overall ratio is lower than Γ (and so is every iterate).
func allocate(layers []*layerState, gamma, gammaCap, lambda float64, cfg search.Config, seed int64) []float64 {
	ap := &allocProblem{layers: layers, lambda: lambda, caps: make([]float64, len(layers))}
	var totalW float64
	for i, ls := range layers {
		ap.scoreSum += ls.score
		ap.caps[i] = capFor(ls, gammaCap)
		totalW += float64(ls.weights)
	}
	if ap.scoreSum == 0 {
		ap.scoreSum = 1
	}
	init := make([]float64, len(layers))
	remaining := gamma * totalW
	for pass := 0; pass < 64 && remaining > 1e-9*totalW; pass++ {
		var openW float64
		for i, ls := range layers {
			if init[i] < ap.caps[i] {
				openW += float64(ls.weights)
			}
		}
		if openW == 0 {
			break
		}
		share := remaining / openW
		progressed := false
		for i, ls := range layers {
			room := ap.caps[i] - init[i]
			if room <= 0 {
				continue
			}
			add := math.Min(share, room)
			if add > 0 {
				init[i] += add
				remaining -= float64(add * float64(ls.weights))
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	best, _ := search.Anneal(ap, init, cfg, seed)
	return best
}
