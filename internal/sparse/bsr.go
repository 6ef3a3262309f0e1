// Package sparse implements the Block Compressed Sparse Row (BSR) format
// the paper integrates into HAWAII⁺ (Section III-D): a pruned layer's
// weight matrix is stored as three one-dimensional arrays — the nonzero
// weight blocks, plus two index arrays that jointly locate each block in
// the original matrix. Inference progress through a BSR layer is jointly
// indicated by the current indices into the three arrays, and skipping
// zero blocks is what converts pruning into fewer accelerator operations
// and fewer NVM writes.
package sparse

import (
	"fmt"

	"iprune/internal/fixed"
	"iprune/internal/nn"
)

// Matrix is a BSR-encoded, Q15-quantized weight matrix.
//
// Blocks are stored padded to the uniform BM×BK shape (edge blocks are
// zero-padded), which is how fixed-function DMA engines prefer them; the
// padding is charged to the reported model size, as it occupies NVM.
type Matrix struct {
	Rows, Cols int
	BM, BK     int
	// RowPtr has BlockRows+1 entries; block row br owns the BSR slots
	// RowPtr[br] .. RowPtr[br+1].
	RowPtr []int32
	// ColIdx holds the block-column index of each stored block.
	ColIdx []int32
	// Blocks holds the stored blocks back to back, each BM*BK values.
	Blocks []fixed.Q15
	// Shift is the power-of-two scale shared by all values (see fixed).
	Shift int
}

// indexEntryBytes is the on-device width of one index entry. Layer
// dimensions on MSP430-class devices fit in 16 bits.
const indexEntryBytes = 2

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// FromDense quantizes the kept blocks of a dense rows×cols float32 matrix
// into BSR form. mask may be nil for a fully dense encoding.
func FromDense(w []float32, rows, cols int, mask *nn.BlockMask, bm, bk int) (*Matrix, error) {
	if len(w) < rows*cols {
		return nil, fmt.Errorf("sparse: weight slice %d smaller than %dx%d", len(w), rows, cols)
	}
	if mask != nil && (mask.Rows != rows || mask.Cols != cols || mask.BM != bm || mask.BK != bk) {
		return nil, fmt.Errorf("sparse: mask %dx%d/%dx%d does not match %dx%d/%dx%d",
			mask.Rows, mask.Cols, mask.BM, mask.BK, rows, cols, bm, bk)
	}
	qt := fixed.QuantizeSlice(w[:rows*cols])
	m := &Matrix{Rows: rows, Cols: cols, BM: bm, BK: bk, Shift: qt.Shift}
	brs, bcs := ceilDiv(rows, bm), ceilDiv(cols, bk)
	m.RowPtr = make([]int32, brs+1)
	for br := 0; br < brs; br++ {
		m.RowPtr[br] = int32(len(m.ColIdx))
		for bc := 0; bc < bcs; bc++ {
			if mask != nil && !mask.Keep[br*bcs+bc] {
				continue
			}
			m.ColIdx = append(m.ColIdx, int32(bc))
			base := len(m.Blocks)
			m.Blocks = append(m.Blocks, make([]fixed.Q15, bm*bk)...)
			for r := 0; r < bm; r++ {
				gr := br*bm + r
				if gr >= rows {
					break
				}
				for c := 0; c < bk; c++ {
					gc := bc*bk + c
					if gc >= cols {
						break
					}
					m.Blocks[base+r*bk+c] = qt.Data[gr*cols+gc]
				}
			}
		}
	}
	m.RowPtr[brs] = int32(len(m.ColIdx))
	return m, nil
}

// BlockRows returns the number of block rows.
func (m *Matrix) BlockRows() int { return ceilDiv(m.Rows, m.BM) }

// BlockCols returns the number of block columns.
func (m *Matrix) BlockCols() int { return ceilDiv(m.Cols, m.BK) }

// NNZBlocks returns the number of stored (nonzero) blocks.
func (m *Matrix) NNZBlocks() int { return len(m.ColIdx) }

// Density returns the fraction of blocks stored.
//
//iprune:allow-float reporting ratio, not device numerics
func (m *Matrix) Density() float64 {
	total := m.BlockRows() * m.BlockCols()
	if total == 0 {
		return 0
	}
	return float64(m.NNZBlocks()) / float64(total)
}

// SizeBytes reports the NVM footprint: stored blocks at 2 bytes per
// value plus the two index arrays at their on-device width.
func (m *Matrix) SizeBytes() int {
	return 2*len(m.Blocks) + indexEntryBytes*len(m.ColIdx) + indexEntryBytes*len(m.RowPtr)
}

// IndexBytes reports just the indexing-structure overhead.
func (m *Matrix) IndexBytes() int {
	return indexEntryBytes*len(m.ColIdx) + indexEntryBytes*len(m.RowPtr)
}

// Block returns the values of stored block slot s (BM*BK values) and its
// block coordinates.
func (m *Matrix) Block(s int) (vals []fixed.Q15, br, bc int) {
	if s < 0 || s >= m.NNZBlocks() {
		panic(fmt.Sprintf("sparse: block slot %d out of range [0,%d)", s, m.NNZBlocks()))
	}
	// Binary-search-free scan is fine: BlockRows is small on these models,
	// and the engine iterates slots in order anyway.
	br = 0
	for int(m.RowPtr[br+1]) <= s {
		br++
	}
	return m.Blocks[s*m.BM*m.BK : (s+1)*m.BM*m.BK], br, int(m.ColIdx[s])
}

// ToDense reconstructs the dense float32 matrix (pruned blocks are zero).
//
//iprune:allow-float dequantization boundary: exports BSR weights back to trainer floats
func (m *Matrix) ToDense() []float32 {
	out := make([]float32, m.Rows*m.Cols)
	scale := float32(1)
	for i := 0; i < m.Shift; i++ {
		scale *= 2
	}
	for s := 0; s < m.NNZBlocks(); s++ {
		vals, br, bc := m.Block(s)
		for r := 0; r < m.BM; r++ {
			gr := br*m.BM + r
			if gr >= m.Rows {
				break
			}
			for c := 0; c < m.BK; c++ {
				gc := bc*m.BK + c
				if gc >= m.Cols {
					break
				}
				out[gr*m.Cols+gc] = float32(vals[r*m.BK+c].Float()) * scale
			}
		}
	}
	return out
}
