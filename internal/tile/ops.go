package tile

import (
	"fmt"

	"iprune/internal/nn"
)

// CheckMask reports whether mask (nil = unpruned) has the weight-block
// geometry of spec: an M×K matrix in TM×TK blocks. No op can be walked
// over a mask that fails it.
func CheckMask(spec *LayerSpec, mask *nn.BlockMask) error {
	if mask == nil {
		return nil
	}
	if mask.Rows != spec.M || mask.Cols != spec.K || mask.BM != spec.TM || mask.BK != spec.TK ||
		len(mask.Keep) != spec.Blocks() {
		return fmt.Errorf("tile: mask geometry %dx%d/%dx%d does not match spec %dx%d/%dx%d for %s",
			mask.Rows, mask.Cols, mask.BM, mask.BK, spec.M, spec.K, spec.TM, spec.TK, spec.Name)
	}
	return nil
}

// OpIter is a cursor over the accelerator ops of one layer, in the order
// the HAWAII⁺ engine issues them. The order is input-stationary, the
// low-memory GEMM ordering of [2]: output-column tiles outermost, then
// k-blocks, then block rows. The kk×tn input tile is fetched once per
// surviving k-panel and reused across every block row, while each op
// streams in its own weight block; pruned blocks issue no op. The
// analytic counters (CountLayer), both schedules of the cost simulator
// and the functional engine all walk this one cursor:
//
//	for op := tile.Ops(spec, mask); op.Next(); {
//		b := op.Bytes(mode, cfg)
//		...
//	}
//
// After Next returns true the exported fields describe the current op.
type OpIter struct {
	Row, Col int // block row (row strip) and k-block of the weight block
	R0, RM   int // output rows [R0, R0+RM)
	K0, KK   int // reduction range [K0, K0+KK)
	N0, TN   int // output columns [N0, N0+TN)
	// Seen counts the kept blocks of the op's row strip before it in this
	// column tile: the op's slot in its BSR block row, and the parity of
	// the partial-sum buffer it accumulates into.
	Seen int
	// FirstInPanel marks the first op of its k-panel in this column tile,
	// the one that fetches the panel's input tile.
	FirstInPanel bool
	// LastInStrip marks the op that completes its row strip in this
	// column tile.
	LastInStrip bool

	spec            *LayerSpec
	keep            []bool // nil: every block is kept
	brs, bcs, tiles int
	j               int   // current column tile
	blocks          int   // kept blocks of the layer
	kept, seen      []int // per row strip: kept blocks, ops issued in tile j
	panelStarted    bool
}

// Ops returns a cursor positioned before the first op of the layer under
// mask (nil = unpruned). It panics if the mask fails CheckMask.
func Ops(spec *LayerSpec, mask *nn.BlockMask) OpIter {
	if err := CheckMask(spec, mask); err != nil {
		panic(err.Error())
	}
	it := OpIter{
		Row:   -1,
		spec:  spec,
		brs:   ceilDiv(spec.M, spec.TM),
		bcs:   ceilDiv(spec.K, spec.TK),
		tiles: ceilDiv(spec.N, spec.TN),
	}
	if mask != nil {
		it.keep = mask.Keep
	}
	counts := make([]int, 2*it.brs)
	it.kept, it.seen = counts[:it.brs], counts[it.brs:]
	for br := range it.kept {
		for bc := 0; bc < it.bcs; bc++ {
			if it.keep == nil || it.keep[br*it.bcs+bc] {
				it.kept[br]++
			}
		}
		it.blocks += it.kept[br]
	}
	if it.blocks == 0 {
		it.j = it.tiles // nothing to walk
	}
	return it
}

// Blocks returns the number of kept weight blocks of the layer.
func (it *OpIter) Blocks() int { return it.blocks }

// Len returns the number of ops the cursor yields in total: every kept
// block once per output-column tile.
func (it *OpIter) Len() int { return it.blocks * it.tiles }

// Next advances the cursor to the next op and reports whether there is
// one.
func (it *OpIter) Next() bool {
	for it.j < it.tiles {
		it.Row++
		if it.Row == it.brs {
			it.Row = 0
			it.panelStarted = false
			if it.Col++; it.Col == it.bcs {
				it.Col = 0
				if it.j++; it.j == it.tiles {
					return false
				}
				clear(it.seen)
			}
		}
		if it.keep != nil && !it.keep[it.Row*it.bcs+it.Col] {
			continue
		}
		s := it.spec
		it.R0, it.K0, it.N0 = it.Row*s.TM, it.Col*s.TK, it.j*s.TN
		it.RM, it.KK, it.TN = min(s.TM, s.M-it.R0), min(s.TK, s.K-it.K0), min(s.TN, s.N-it.N0)
		it.Seen = it.seen[it.Row]
		it.seen[it.Row]++
		it.LastInStrip = it.seen[it.Row] == it.kept[it.Row]
		it.FirstInPanel = !it.panelStarted
		it.panelStarted = true
		return true
	}
	return false
}

// MACs returns the op's multiply-accumulates.
func (it *OpIter) MACs() int64 { return int64(it.RM) * int64(it.KK) * int64(it.TN) }

// Jobs returns the accelerator outputs the op produces.
func (it *OpIter) Jobs() int64 { return int64(it.RM) * int64(it.TN) }

// OpBytes is the NVM traffic of one op.
type OpBytes struct {
	Weight int64 // its weight block, fetched by every op
	// Input is the k-panel's input tile, charged to the panel's first op.
	Input int64
	// Output is the outputs written back: every op's in intermittent mode
	// (preservation is write-only in steady state; partials accumulate in
	// the VM-resident panel), only the strip-completing op's OFM tile in
	// continuous mode.
	Output    int64
	Indicator int64 // the progress indicator, intermittent mode only
	// Refetch is what progress recovery re-reads if power fails during
	// the op: its weight block, the full input tile, and the preserved
	// partial outputs it accumulates onto.
	Refetch int64
}

// Bytes returns the current op's NVM traffic under mode.
func (it *OpIter) Bytes(mode Mode, cfg Config) OpBytes {
	eb := int64(cfg.ElemBytes)
	rm, kk, tn := int64(it.RM), int64(it.KK), int64(it.TN)
	b := OpBytes{Weight: rm * kk * eb, Refetch: rm*kk*eb + kk*tn*eb + rm*tn*eb}
	if it.FirstInPanel {
		b.Input = kk * tn * eb
	}
	if mode == Intermittent {
		b.Output = rm * tn * eb
		b.Indicator = int64(cfg.IndicatorBytes)
	} else if it.LastInStrip {
		b.Output = rm * tn * eb
	}
	return b
}
