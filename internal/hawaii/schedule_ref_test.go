package hawaii

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"iprune/internal/nn"
	"iprune/internal/obs"
	"iprune/internal/tile"
)

// refBuildSchedule and refBuildTaskSchedule are BuildSchedule and
// BuildTaskSchedule as they were written before both walked tile.Ops:
// their own (column tile, k-block, block row) loop nests, kept unchanged
// as the references the cursor-driven schedules must reproduce op for
// op, order included. Both price their ops like the builders do;
// TestOpCostMatchesEnergyModel checks the prices.

func refBuildSchedule(spec *tile.LayerSpec, mask *nn.BlockMask, mode tile.Mode, cfg tile.Config) []Op {
	if mask != nil && (mask.Rows != spec.M || mask.Cols != spec.K || mask.BM != spec.TM || mask.BK != spec.TK) {
		panic(fmt.Sprintf("hawaii: mask geometry does not match spec for %s", spec.Name))
	}
	eb := int64(cfg.ElemBytes)
	brs := (spec.M + spec.TM - 1) / spec.TM
	bcs := (spec.K + spec.TK - 1) / spec.TK
	nTiles := (spec.N + spec.TN - 1) / spec.TN
	keep := func(br, bc int) bool {
		return mask == nil || mask.Keep[br*bcs+bc]
	}
	// seen[br] counts surviving k-blocks encountered per row strip within
	// one output-column tile; lastSeen[br] is the total, used to attribute
	// the continuous-mode OFM write to the op that completes the strip.
	lastSeen := make([]int, brs)
	for br := 0; br < brs; br++ {
		for bc := 0; bc < bcs; bc++ {
			if keep(br, bc) {
				lastSeen[br]++
			}
		}
	}
	ops := make([]Op, 0, brs*bcs*nTiles)
	seen := make([]int, brs)
	for j := 0; j < nTiles; j++ {
		tn := min(spec.TN, spec.N-j*spec.TN)
		for br := range seen {
			seen[br] = 0
		}
		for bc := 0; bc < bcs; bc++ {
			kk := min(spec.TK, spec.K-bc*spec.TK)
			inputCharged := false
			for br := 0; br < brs; br++ {
				if !keep(br, bc) {
					continue
				}
				rm := min(spec.TM, spec.M-br*spec.TM)
				op := Op{
					Layer:      spec.Index,
					MACs:       int64(rm) * int64(kk) * int64(tn),
					Jobs:       int64(rm) * int64(tn),
					WeightRead: int64(rm) * int64(kk) * eb,
				}
				op.RefetchBytes = op.WeightRead + int64(kk)*int64(tn)*eb + int64(rm)*int64(tn)*eb
				if !inputCharged {
					op.InputRead = int64(kk) * int64(tn) * eb
					inputCharged = true
				}
				if mode == tile.Intermittent {
					op.OutWrite = int64(rm) * int64(tn) * eb
					op.IndWrite = int64(cfg.IndicatorBytes)
				} else if seen[br] == lastSeen[br]-1 {
					// Continuous mode: the completed OFM strip tile is
					// written back once, attributed to the op finishing it.
					op.OutWrite = int64(rm) * int64(tn) * eb
				}
				ops = append(ops, op)
				seen[br]++
			}
		}
	}
	return priceOps(ops, mode, cfg)
}

func refBuildTaskSchedule(spec *tile.LayerSpec, mask *nn.BlockMask, cfg tile.Config) []Op {
	if mask != nil && (mask.Rows != spec.M || mask.Cols != spec.K || mask.BM != spec.TM || mask.BK != spec.TK) {
		panic("hawaii: mask geometry does not match spec for " + spec.Name)
	}
	eb := int64(cfg.ElemBytes)
	brs := (spec.M + spec.TM - 1) / spec.TM
	bcs := (spec.K + spec.TK - 1) / spec.TK
	nTiles := (spec.N + spec.TN - 1) / spec.TN
	keep := func(br, bc int) bool {
		return mask == nil || mask.Keep[br*bcs+bc]
	}
	var tasks []Op
	for j := 0; j < nTiles; j++ {
		tn := min(spec.TN, spec.N-j*spec.TN)
		for bc := 0; bc < bcs; bc++ {
			kk := min(spec.TK, spec.K-bc*spec.TK)
			var task Op
			task.Layer = spec.Index
			task.SerialWrite = true
			rows := 0
			for br := 0; br < brs; br++ {
				if !keep(br, bc) {
					continue
				}
				rm := min(spec.TM, spec.M-br*spec.TM)
				rows += rm
				task.MACs += int64(rm) * int64(kk) * int64(tn)
				task.Jobs += int64(rm) * int64(tn)
				task.WeightRead += int64(rm) * int64(kk) * eb
			}
			if rows == 0 {
				continue // fully pruned k-panel: no task at all
			}
			task.InputRead = int64(kk) * int64(tn) * eb
			task.OutWrite = int64(rows) * int64(tn) * eb
			task.IndWrite = taskIndicatorBytes
			task.RefetchBytes = task.WeightRead + task.InputRead + task.OutWrite
			tasks = append(tasks, task)
		}
	}
	return priceOps(tasks, tile.Intermittent, cfg)
}

// genLayer draws a layer geometry and mask: M, K and N that are mostly
// not multiples of the tile sizes, the edges TM = M, TK = 1 and TN = 1,
// and masks that are nil, all kept, all pruned, missing a whole row
// strip or k-panel, or of random density.
func genLayer(rng *rand.Rand, index int) (tile.LayerSpec, *nn.BlockMask) {
	s := tile.LayerSpec{Index: index, Name: fmt.Sprint("gen", index), M: 1 + rng.Intn(20), K: 1 + rng.Intn(40), N: 1 + rng.Intn(70)}
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

func TestBuildScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := tile.DefaultConfig()
	for i := 0; i < 3000; i++ {
		spec, mask := genLayer(rng, i%7)
		for _, mode := range []tile.Mode{tile.Intermittent, tile.Continuous} {
			got := BuildSchedule(&spec, mask, mode, cfg)
			want := refBuildSchedule(&spec, mask, mode, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d %+v %v: schedule differs from the reference\n got %+v\nwant %+v", i, spec, mode, got, want)
			}
		}
		got := BuildTaskSchedule(&spec, mask, cfg)
		if want := refBuildTaskSchedule(&spec, mask, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d %+v: task schedule differs from the reference\n got %+v\nwant %+v", i, spec, got, want)
		}
	}
}

func TestScheduleFromNetworkMatchesReference(t *testing.T) {
	net, specs, cfg := buildNet(21)
	pruneSome(net, 3)
	prunables := net.Prunables()
	for _, mode := range []tile.Mode{tile.Intermittent, tile.Continuous} {
		var want []Op
		for i := range specs {
			want = append(want, refBuildSchedule(&specs[i], prunables[i].Mask(), mode, cfg)...)
		}
		if got := ScheduleFromNetwork(net, specs, mode, cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: whole-model schedule differs from the reference", mode)
		}
	}
}

// TestEngineOpsMatchReferenceSchedule follows the functional engine op by
// op: the k-th committed op reads and writes exactly the bytes of the
// reference schedule's k-th op, so the engine issues the schedule's ops
// in the schedule's order. Under failures, each re-executed op reads its
// recovery refetch instead.
func TestEngineOpsMatchReferenceSchedule(t *testing.T) {
	for _, inj := range []FailureInjector{nil, &EveryN{N: 3}} {
		e, samples := newTestEngine(t, 22, 3)
		rec := obs.NewRecorder()
		e.Trace = rec
		res, err := e.Infer(samples[0].X, inj)
		if err != nil {
			t.Fatal(err)
		}
		prunables := e.Net.Prunables()
		var want []Op
		for i := range e.Specs {
			want = append(want, refBuildSchedule(&e.Specs[i], prunables[i].Mask(), tile.Intermittent, e.Cfg)...)
		}
		k, reexec := -1, 0
		for _, ev := range rec.Events() {
			switch {
			case ev.Kind == obs.KindReExec:
				reexec++
				if ev.Read != want[k+1].RefetchBytes {
					t.Fatalf("re-executed op %d refetches %d bytes, reference %d", k+1, ev.Read, want[k+1].RefetchBytes)
				}
			case ev.Kind == obs.KindOpCommit:
				k++
				if k >= len(want) {
					t.Fatalf("engine commits more than the reference schedule's %d ops", len(want))
				}
				read := want[k].WeightRead + want[k].InputRead
				if reexec > 0 {
					read = want[k].RefetchBytes
				}
				if ev.Read != read {
					t.Fatalf("engine op %d reads %d bytes, reference %d", k, ev.Read, read)
				}
				reexec = 0
			case ev.Kind == obs.KindPreserve && ev.Op >= 0:
				if w := want[k].OutWrite + want[k].IndWrite; ev.Write != w {
					t.Fatalf("engine op %d writes %d bytes, reference %d", k, ev.Write, w)
				}
			}
		}
		if k+1 != len(want) {
			t.Errorf("engine committed %d ops, reference schedule has %d", k+1, len(want))
		}
		if inj != nil && res.Stats.ReExecOps == 0 {
			t.Error("failures re-executed no op")
		}
	}
}

// TestEngineRejectsStaleMask changes the network's masks after
// deployment. The engine walks the current mask over the deployed BSR,
// so a mask that no longer matches it is an error, not a different
// schedule.
func TestEngineRejectsStaleMask(t *testing.T) {
	for name, change := range map[string]func(m *nn.BlockMask){
		// One more block pruned: the kept counts differ.
		"extra block pruned": func(m *nn.BlockMask) {
			for b := range m.Keep {
				if m.Keep[b] {
					m.Keep[b] = false
					return
				}
			}
		},
		// A kept and a pruned block of one row strip swap places: the
		// counts agree, the columns do not.
		"block moved": func(m *nn.BlockMask) {
			bcs := m.BlockCols()
			for b := range m.Keep {
				if m.Keep[b] && b%bcs+1 < bcs && !m.Keep[b+1] {
					m.Keep[b], m.Keep[b+1] = false, true
					return
				}
			}
			t.Fatal("no kept block next to a pruned one")
		},
	} {
		e, samples := newTestEngine(t, 23, 3)
		change(e.Net.Prunables()[1].Mask())
		if _, err := e.Infer(samples[0].X, nil); err == nil || !strings.Contains(err.Error(), "deployed BSR") {
			t.Errorf("%s: Infer = %v, want a deployed-BSR mismatch", name, err)
		}
	}
	e, samples := newTestEngine(t, 23, 3)
	e.Net.Prunables()[0].InitBlocks(1, 1)
	if _, err := e.Infer(samples[0].X, nil); err == nil || !strings.Contains(err.Error(), "mask geometry") {
		t.Errorf("regrown mask geometry: Infer = %v, want a geometry error", err)
	}
}
