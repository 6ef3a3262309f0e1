package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"iprune/internal/nn"
)

func denseRand(rng *rand.Rand, n int) []float32 {
	w := make([]float32, n)
	for i := range w {
		w[i] = rng.Float32()*2 - 1
	}
	return w
}

func TestFromDenseRoundTripUnmasked(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := denseRand(rng, 6*8)
	m, err := FromDense(w, 6, 8, nil, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZBlocks() != 6 {
		t.Fatalf("NNZBlocks = %d, want 6 (3x2 grid)", m.NNZBlocks())
	}
	if m.Density() != 1 {
		t.Errorf("Density = %v, want 1", m.Density())
	}
	back := m.ToDense()
	for i := range w {
		if math.Abs(float64(back[i]-w[i])) > 1.0/(1<<14) {
			t.Fatalf("round trip at %d: %v vs %v", i, back[i], w[i])
		}
	}
}

func TestFromDenseMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	w := denseRand(rng, 4*8)
	mask := nn.NewBlockMask(4, 8, 2, 4)
	mask.Keep[0] = false // block row 0, block col 0
	mask.Apply(w)
	m, err := FromDense(w, 4, 8, mask, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZBlocks() != 3 {
		t.Fatalf("NNZBlocks = %d, want 3", m.NNZBlocks())
	}
	back := m.ToDense()
	for r := 0; r < 2; r++ {
		for c := 0; c < 4; c++ {
			if back[r*8+c] != 0 {
				t.Errorf("pruned region nonzero at (%d,%d)", r, c)
			}
		}
	}
	// Kept region survives.
	for r := 0; r < 4; r++ {
		for c := 4; c < 8; c++ {
			if math.Abs(float64(back[r*8+c]-w[r*8+c])) > 1.0/(1<<14) {
				t.Errorf("kept region mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestFromDenseValidation(t *testing.T) {
	if _, err := FromDense(make([]float32, 5), 2, 4, nil, 1, 2); err == nil {
		t.Error("expected error for short slice")
	}
	mask := nn.NewBlockMask(2, 4, 1, 1)
	if _, err := FromDense(make([]float32, 8), 2, 4, mask, 1, 2); err == nil {
		t.Error("expected error for mismatched mask")
	}
}

func TestRowPtrInvariants(t *testing.T) {
	f := func(rSeed int64, prunePct uint8) bool {
		rng := rand.New(rand.NewSource(rSeed))
		rows, cols, bm, bk := 6, 10, 2, 3
		w := denseRand(rng, rows*cols)
		mask := nn.NewBlockMask(rows, cols, bm, bk)
		for b := range mask.Keep {
			if rng.Intn(100) < int(prunePct%100) {
				mask.Keep[b] = false
			}
		}
		mask.Apply(w)
		m, err := FromDense(w, rows, cols, mask, bm, bk)
		if err != nil {
			return false
		}
		// RowPtr monotone, first 0, last == nnz.
		if m.RowPtr[0] != 0 || int(m.RowPtr[len(m.RowPtr)-1]) != m.NNZBlocks() {
			return false
		}
		for i := 1; i < len(m.RowPtr); i++ {
			if m.RowPtr[i] < m.RowPtr[i-1] {
				return false
			}
		}
		// ColIdx strictly increasing within each block row.
		for br := 0; br < m.BlockRows(); br++ {
			for s := int(m.RowPtr[br]) + 1; s < int(m.RowPtr[br+1]); s++ {
				if m.ColIdx[s] <= m.ColIdx[s-1] {
					return false
				}
			}
		}
		return m.NNZBlocks() == mask.KeptBlocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSizeBytesAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := denseRand(rng, 4*8)
	mask := nn.NewBlockMask(4, 8, 2, 4)
	mask.Keep[1] = false
	mask.Apply(w)
	m, err := FromDense(w, 4, 8, mask, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 3 blocks * 8 vals * 2B + 3 colidx * 2B + 3 rowptr * 2B.
	want := 3*8*2 + 3*2 + 3*2
	if m.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want %d", m.SizeBytes(), want)
	}
	if m.IndexBytes() != 12 {
		t.Errorf("IndexBytes = %d, want 12", m.IndexBytes())
	}
}

func TestPruningShrinksSize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := denseRand(rng, 16*32)
	full, err := FromDense(w, 16, 32, nil, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	mask := nn.NewBlockMask(16, 32, 4, 8)
	for b := 0; b < mask.NumBlocks(); b += 2 {
		mask.Keep[b] = false
	}
	w2 := append([]float32(nil), w...)
	mask.Apply(w2)
	half, err := FromDense(w2, 16, 32, mask, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if half.SizeBytes() >= full.SizeBytes() {
		t.Errorf("pruned size %d >= full size %d", half.SizeBytes(), full.SizeBytes())
	}
}

func TestBlockLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := denseRand(rng, 4*6)
	mask := nn.NewBlockMask(4, 6, 2, 2)
	mask.Keep[0] = false
	mask.Keep[4] = false
	mask.Apply(w)
	m, err := FromDense(w, 4, 6, mask, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]bool{}
	for s := 0; s < m.NNZBlocks(); s++ {
		_, br, bc := m.Block(s)
		seen[[2]int{br, bc}] = true
	}
	if seen[[2]int{0, 0}] || seen[[2]int{1, 1}] {
		t.Error("pruned blocks present in BSR")
	}
	if len(seen) != 4 {
		t.Errorf("stored blocks = %d, want 4", len(seen))
	}
}

func TestBlockPanicsOutOfRange(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, BM: 1, BK: 1, RowPtr: []int32{0, 0, 0}}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.Block(0)
}
