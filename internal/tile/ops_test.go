package tile

import (
	"fmt"
	"math/rand"
	"testing"

	"iprune/internal/nn"
)

// refCountLayer is CountLayer as it was written before it became a fold
// over Ops: a closed-form count over the (block row, k-block) grid, kept
// unchanged as the reference the fold must reproduce counter for counter.
func refCountLayer(spec *LayerSpec, mask *nn.BlockMask, mode Mode, cfg Config) Counts {
	if mask != nil {
		if mask.Rows != spec.M || mask.Cols != spec.K || mask.BM != spec.TM || mask.BK != spec.TK {
			panic(fmt.Sprintf("tile: mask geometry %dx%d/%dx%d does not match spec %dx%d/%dx%d for %s",
				mask.Rows, mask.Cols, mask.BM, mask.BK, spec.M, spec.K, spec.TM, spec.TK, spec.Name))
		}
	}
	var c Counts
	eb := int64(cfg.ElemBytes)
	brs := ceilDiv(spec.M, spec.TM) // block rows
	bcs := ceilDiv(spec.K, spec.TK) // block cols
	nTiles := ceilDiv(spec.N, spec.TN)
	for br := 0; br < brs; br++ {
		rm := min(spec.TM, spec.M-br*spec.TM)
		seen := 0
		for bc := 0; bc < bcs; bc++ {
			if mask != nil && !mask.Keep[br*bcs+bc] {
				continue
			}
			kk := min(spec.TK, spec.K-bc*spec.TK)
			c.Ops += int64(nTiles)
			c.Jobs += int64(rm) * int64(spec.N)
			c.MACs += int64(rm) * int64(kk) * int64(spec.N)
			// Weight block fetched once per op (it stays in VM across the
			// op's outputs but is re-fetched per output-column tile).
			c.WeightRead += int64(nTiles) * int64(rm) * int64(kk) * eb
			if mode == Intermittent {
				c.OutputWrite += int64(rm) * int64(spec.N) * eb
				c.IndicatorWrite += int64(nTiles) * int64(cfg.IndicatorBytes)
			}
			seen++
		}
		if mode == Continuous && seen > 0 {
			// OFM row strip written once when its tiles complete.
			c.OutputWrite += int64(rm) * int64(spec.N) * eb
		}
	}
	// Input tiles are fetched once per surviving k-panel and reused
	// across block rows (input-stationary ordering).
	for bc := 0; bc < bcs; bc++ {
		kept := mask == nil
		if !kept {
			for br := 0; br < brs; br++ {
				if mask.Keep[br*bcs+bc] {
					kept = true
					break
				}
			}
		}
		if kept {
			kk := min(spec.TK, spec.K-bc*spec.TK)
			c.InputRead += int64(kk) * int64(spec.N) * eb
		}
	}
	return c
}

// genLayer draws a layer geometry and mask: M, K and N that are mostly
// not multiples of the tile sizes, the edges TM = M, TK = 1 and TN = 1,
// and masks that are nil, all kept, all pruned, missing a whole row
// strip or k-panel, or of random density.
func genLayer(rng *rand.Rand) (LayerSpec, *nn.BlockMask) {
	s := LayerSpec{Name: "gen", M: 1 + rng.Intn(20), K: 1 + rng.Intn(40), N: 1 + rng.Intn(70)}
	s.TM, s.TK, s.TN = 1+rng.Intn(s.M), 1+rng.Intn(s.K), 1+rng.Intn(s.N)
	switch rng.Intn(4) {
	case 0:
		s.TM = s.M
	case 1:
		s.TK = 1
	case 2:
		s.TN = 1
	}
	if rng.Intn(6) == 0 {
		return s, nil
	}
	mask := nn.NewBlockMask(s.M, s.K, s.TM, s.TK)
	brs, bcs := mask.BlockRows(), mask.BlockCols()
	density := rng.Float64()
	for b := range mask.Keep {
		mask.Keep[b] = rng.Float64() < density
	}
	switch rng.Intn(5) {
	case 0:
		for b := range mask.Keep {
			mask.Keep[b] = true
		}
	case 1:
		for b := range mask.Keep {
			mask.Keep[b] = false
		}
	case 2:
		br := rng.Intn(brs)
		for bc := 0; bc < bcs; bc++ {
			mask.Keep[br*bcs+bc] = false
		}
	case 3:
		bc := rng.Intn(bcs)
		for br := 0; br < brs; br++ {
			mask.Keep[br*bcs+bc] = false
		}
	}
	return s, mask
}

func TestCountLayerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultConfig()
	for i := 0; i < 3000; i++ {
		spec, mask := genLayer(rng)
		for _, mode := range []Mode{Intermittent, Continuous} {
			got := CountLayer(&spec, mask, mode, cfg)
			want := refCountLayer(&spec, mask, mode, cfg)
			for _, f := range []struct {
				name      string
				got, want int64
			}{
				{"Ops", got.Ops, want.Ops},
				{"Jobs", got.Jobs, want.Jobs},
				{"MACs", got.MACs, want.MACs},
				{"WeightRead", got.WeightRead, want.WeightRead},
				{"InputRead", got.InputRead, want.InputRead},
				{"PartialRead", got.PartialRead, want.PartialRead},
				{"OutputWrite", got.OutputWrite, want.OutputWrite},
				{"IndicatorWrite", got.IndicatorWrite, want.IndicatorWrite},
			} {
				if f.got != f.want {
					t.Fatalf("case %d %+v %v: %s = %d, reference %d", i, spec, mode, f.name, f.got, f.want)
				}
			}
		}
	}
}

// TestOpsCursorPlaces checks each op's place against the mask directly:
// the input-stationary order, Seen as the kept blocks left of the op in
// its row strip, and the first-in-panel and last-in-strip marks.
func TestOpsCursorPlaces(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 1000; i++ {
		spec, mask := genLayer(rng)
		bcs := ceilDiv(spec.K, spec.TK)
		keep := func(br, bc int) bool { return mask == nil || mask.Keep[br*bcs+bc] }
		n, prev := 0, -1
		lastPanel := [2]int{-1, -1}
		it := Ops(&spec, mask)
		for it.Next() {
			n++
			pos := (it.N0/spec.TN*bcs+it.Col)*ceilDiv(spec.M, spec.TM) + it.Row
			if pos <= prev || !keep(it.Row, it.Col) {
				t.Fatalf("case %d: op (%d,%d,%d) out of order or pruned", i, it.N0, it.Col, it.Row)
			}
			prev = pos
			if it.R0 != it.Row*spec.TM || it.K0 != it.Col*spec.TK || it.N0%spec.TN != 0 ||
				it.RM != min(spec.TM, spec.M-it.R0) || it.KK != min(spec.TK, spec.K-it.K0) || it.TN != min(spec.TN, spec.N-it.N0) {
				t.Fatalf("case %d: op ranges %+v do not match spec %+v", i, it, spec)
			}
			before, after := 0, 0
			for bc := 0; bc < bcs; bc++ {
				if keep(it.Row, bc) && bc < it.Col {
					before++
				} else if keep(it.Row, bc) && bc > it.Col {
					after++
				}
			}
			panel := [2]int{it.N0, it.Col}
			if it.Seen != before || it.LastInStrip != (after == 0) || it.FirstInPanel != (panel != lastPanel) {
				t.Fatalf("case %d: op (%d,%d,%d) Seen=%d first=%v last=%v; want %d %v %v",
					i, it.N0, it.Col, it.Row, it.Seen, it.FirstInPanel, it.LastInStrip, before, panel != lastPanel, after == 0)
			}
			lastPanel = panel
		}
		want := 0
		for b := 0; b < spec.Blocks(); b++ {
			if keep(b/bcs, b%bcs) {
				want += ceilDiv(spec.N, spec.TN)
			}
		}
		if n != want || it.Len() != want || it.Next() {
			t.Fatalf("case %d: walked %d ops, Len %d, want %d", i, n, it.Len(), want)
		}
	}
}
