// Package nn implements the small training stack the pruning framework
// needs: convolutional, fully connected, pooling and activation layers
// with exact manual backpropagation, SGD with momentum, and — the part
// that is specific to this paper — per-block weight masks that express
// pruning at the granularity of one accelerator-operation weight block
// (guideline 3 in Section III-C).
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is a learnable parameter with its gradient accumulator.
type Param struct {
	Data []float32
	Grad []float32
}

// NewParam allocates a parameter of n elements.
func NewParam(n int) *Param {
	return &Param{Data: make([]float32, n), Grad: make([]float32, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// Clone deep-copies the parameter (gradients are reset).
func (p *Param) Clone() *Param {
	c := NewParam(len(p.Data))
	copy(c.Data, p.Data)
	return c
}

// HeInit fills the parameter with He-normal initialization for the given
// fan-in, the standard choice for ReLU networks.
func (p *Param) HeInit(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	for i := range p.Data {
		p.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// BlockMask records which weight blocks of a prunable layer survive.
// The layer's GEMM weight matrix (Rows×Cols) is partitioned into blocks of
// BM×BK; Keep[b] is false once block b has been pruned. Edge blocks are
// clipped to the matrix boundary, matching how HAWAII⁺ issues a final
// partial accelerator operation for ragged tiles.
type BlockMask struct {
	Rows, Cols int
	BM, BK     int
	Keep       []bool
}

// NewBlockMask creates an all-keep mask for a Rows×Cols matrix in BM×BK
// blocks.
func NewBlockMask(rows, cols, bm, bk int) *BlockMask {
	if bm <= 0 || bk <= 0 || rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: invalid block mask geometry %dx%d / %dx%d", rows, cols, bm, bk))
	}
	nb := ceilDiv(rows, bm) * ceilDiv(cols, bk)
	keep := make([]bool, nb)
	for i := range keep {
		keep[i] = true
	}
	return &BlockMask{Rows: rows, Cols: cols, BM: bm, BK: bk, Keep: keep}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// BlockRows returns the number of block rows.
func (m *BlockMask) BlockRows() int { return ceilDiv(m.Rows, m.BM) }

// BlockCols returns the number of block columns.
func (m *BlockMask) BlockCols() int { return ceilDiv(m.Cols, m.BK) }

// NumBlocks returns the total number of blocks.
func (m *BlockMask) NumBlocks() int { return len(m.Keep) }

// KeptBlocks returns how many blocks are still unpruned.
func (m *BlockMask) KeptBlocks() int {
	n := 0
	for _, k := range m.Keep {
		if k {
			n++
		}
	}
	return n
}

// BlockBounds returns the element bounds [r0,r1)×[c0,c1) of block b.
func (m *BlockMask) BlockBounds(b int) (r0, r1, c0, c1 int) {
	bc := m.BlockCols()
	br := b / bc
	bcIdx := b % bc
	r0 = br * m.BM
	r1 = min(r0+m.BM, m.Rows)
	c0 = bcIdx * m.BK
	c1 = min(c0+m.BK, m.Cols)
	return
}

// BlockWeights returns how many weight elements block b covers (edge
// blocks may be smaller).
func (m *BlockMask) BlockWeights(b int) int {
	r0, r1, c0, c1 := m.BlockBounds(b)
	return (r1 - r0) * (c1 - c0)
}

// KeptWeights returns the number of weight elements in unpruned blocks.
func (m *BlockMask) KeptWeights() int {
	n := 0
	for b, k := range m.Keep {
		if k {
			n += m.BlockWeights(b)
		}
	}
	return n
}

// Apply zeroes the pruned blocks in the given Rows×Cols weight matrix.
func (m *BlockMask) Apply(w []float32) {
	for b, keep := range m.Keep {
		if keep {
			continue
		}
		r0, r1, c0, c1 := m.BlockBounds(b)
		for r := r0; r < r1; r++ {
			row := w[r*m.Cols : r*m.Cols+m.Cols]
			for c := c0; c < c1; c++ {
				row[c] = 0
			}
		}
	}
}

// BlockRMS returns the root mean square of the weights inside block b,
// the paper's importance metric for block selection (Section III-D, [20]).
func (m *BlockMask) BlockRMS(w []float32, b int) float64 {
	r0, r1, c0, c1 := m.BlockBounds(b)
	var sum float64
	n := 0
	for r := r0; r < r1; r++ {
		row := w[r*m.Cols : r*m.Cols+m.Cols]
		for c := c0; c < c1; c++ {
			v := float64(row[c])
			sum += float64(v * v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// Clone deep-copies the mask.
func (m *BlockMask) Clone() *BlockMask {
	c := *m
	c.Keep = append([]bool(nil), m.Keep...)
	return &c
}

// Sparsity returns the fraction of weights pruned away (by element count).
func (m *BlockMask) Sparsity() float64 {
	total := m.Rows * m.Cols
	return 1 - float64(m.KeptWeights())/float64(total)
}
