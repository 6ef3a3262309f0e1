// Package compress implements weight sharing (k-means weight clustering),
// one of the compression techniques the paper's conclusion proposes
// adapting to intermittent systems ("matrix decomposition and weight
// sharing").
//
// Weight sharing replaces each layer's weights with entries from a small
// shared codebook, shrinking the stored model to per-weight codebook
// indices plus the codebook itself. Crucially — and this is the point the
// ablation benches make — sharing reduces *model size* but leaves the
// accelerator-operation schedule untouched: every block still computes,
// every output is still preserved to NVM, so intermittent inference
// latency barely moves. Pruning and sharing therefore compose: prune to
// cut accelerator outputs, then share to cut the residual storage.
package compress

import (
	"fmt"
	"math"
	"math/rand"

	"iprune/internal/nn"
)

// Codebook is one layer's shared-weight dictionary.
type Codebook struct {
	Layer     string
	Centroids []float32
	Bits      int // index width per weight
}

// Result describes a weight-sharing pass over a network.
type Result struct {
	Codebooks []Codebook
	// MeanSquaredError is the average squared weight perturbation
	// introduced by sharing, over all clustered weights.
	MeanSquaredError float64
}

// Share clusters every prunable layer's nonzero weights into 2^bits
// shared values (k-means, kmeans++ seeding) and rewrites the weights in
// place. Pruned (masked) weights stay zero and are excluded from
// clustering. Returns the codebooks for size accounting.
func Share(net *nn.Network, bits, iters int, seed int64) (*Result, error) {
	if bits < 1 || bits > 12 {
		return nil, fmt.Errorf("compress: bits %d out of range [1,12]", bits)
	}
	if iters < 1 {
		return nil, fmt.Errorf("compress: iters must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	res := &Result{}
	var sse float64
	var count int
	for _, p := range net.Prunables() {
		w, _, _ := p.WeightMatrix()
		var nz []float32
		for _, v := range w {
			if v != 0 {
				nz = append(nz, v)
			}
		}
		k := 1 << bits
		if len(nz) == 0 {
			res.Codebooks = append(res.Codebooks, Codebook{Layer: p.Name(), Bits: bits})
			continue
		}
		if k > len(nz) {
			k = len(nz)
		}
		centroids := kmeans(nz, k, iters, rng)
		for i, v := range w {
			if v == 0 {
				continue
			}
			c := nearest(centroids, v)
			d := float64(v - centroids[c])
			sse += float64(d * d)
			count++
			w[i] = centroids[c]
		}
		p.ApplyMask()
		res.Codebooks = append(res.Codebooks, Codebook{Layer: p.Name(), Centroids: centroids, Bits: bits})
	}
	if count > 0 {
		res.MeanSquaredError = sse / float64(count)
	}
	return res, nil
}

// SizeBytes estimates the stored size of a shared model: per nonzero
// weight one bits-wide index, plus each codebook at 2 bytes per centroid
// (Q15), plus the BSR index arrays which sharing does not change.
func SizeBytes(net *nn.Network, res *Result, bsrIndexBytes int) int {
	totalBits := 0
	for _, p := range net.Prunables() {
		w, _, _ := p.WeightMatrix()
		nz := 0
		for _, v := range w {
			if v != 0 {
				nz++
			}
		}
		totalBits += nz * res.Codebooks[0].Bits
	}
	codebookBytes := 0
	for _, cb := range res.Codebooks {
		codebookBytes += 2 * len(cb.Centroids)
	}
	return (totalBits+7)/8 + codebookBytes + bsrIndexBytes
}

// kmeans clusters 1-D values with kmeans++ seeding.
func kmeans(vals []float32, k, iters int, rng *rand.Rand) []float32 {
	centroids := seedPlusPlus(vals, k, rng)
	assign := make([]int, len(vals))
	for it := 0; it < iters; it++ {
		changed := false
		for i, v := range vals {
			c := nearest(centroids, v)
			if assign[i] != c {
				assign[i] = c
				changed = true
			}
		}
		sums := make([]float64, k)
		counts := make([]int, k)
		for i, v := range vals {
			sums[assign[i]] += float64(v)
			counts[assign[i]]++
		}
		for c := 0; c < k; c++ {
			if counts[c] > 0 {
				centroids[c] = float32(sums[c] / float64(counts[c]))
			}
		}
		if !changed && it > 0 {
			break
		}
	}
	return centroids
}

// seedPlusPlus picks k initial centroids with distance-squared weighting.
func seedPlusPlus(vals []float32, k int, rng *rand.Rand) []float32 {
	centroids := make([]float32, 0, k)
	centroids = append(centroids, vals[rng.Intn(len(vals))])
	d2 := make([]float64, len(vals))
	for len(centroids) < k {
		var total float64
		for i, v := range vals {
			d := math.Inf(1)
			for _, c := range centroids {
				dd := float64(v-c) * float64(v-c)
				if dd < d {
					d = dd
				}
			}
			d2[i] = d
			total += d
		}
		if total == 0 {
			// All remaining points coincide with centroids; pad with
			// copies (harmless: empty clusters keep their value).
			centroids = append(centroids, centroids[0])
			continue
		}
		r := rng.Float64() * total
		for i := range vals {
			r -= d2[i]
			if r <= 0 {
				centroids = append(centroids, vals[i])
				break
			}
		}
		if r > 0 {
			centroids = append(centroids, vals[len(vals)-1])
		}
	}
	return centroids
}

func nearest(centroids []float32, v float32) int {
	best, bestD := 0, math.Inf(1)
	for c, cv := range centroids {
		d := float64(v-cv) * float64(v-cv)
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}
