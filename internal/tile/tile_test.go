package tile

import (
	"math/rand"
	"testing"
	"testing/quick"

	"iprune/internal/nn"
	"iprune/internal/tensor"
)

func TestSelectTilesConvUsesKernelWindow(t *testing.T) {
	cfg := DefaultConfig()
	tm, tk, tn := SelectTiles(nn.KindConv, 16, 27, 1024, 9, cfg)
	if tk != 9 {
		t.Errorf("conv tk = %d, want 9 (kernel window)", tk)
	}
	if tm < 1 || tm > cfg.MaxTM || tn < 1 || tn > cfg.MaxTN {
		t.Errorf("tile shape out of caps: tm=%d tn=%d", tm, tn)
	}
}

func TestSelectTilesFCUsesVecLen(t *testing.T) {
	cfg := DefaultConfig()
	_, tk, tn := SelectTiles(nn.KindFC, 10, 512, 1, 0, cfg)
	if tk != cfg.FCVecLen {
		t.Errorf("fc tk = %d, want %d", tk, cfg.FCVecLen)
	}
	if tn != 1 {
		t.Errorf("fc tn = %d, want 1", tn)
	}
}

func TestSelectTilesClipsToLayer(t *testing.T) {
	cfg := DefaultConfig()
	tm, tk, tn := SelectTiles(nn.KindFC, 2, 8, 1, 0, cfg)
	if tm > 2 || tk > 8 || tn > 1 {
		t.Errorf("tiles not clipped: %d %d %d", tm, tk, tn)
	}
}

func TestSelectTilesRespectsVMBudget(t *testing.T) {
	f := func(mRaw, kRaw, nRaw uint16, vmRaw uint8) bool {
		m, k, n := int(mRaw%256)+1, int(kRaw%1024)+1, int(nRaw%2048)+1
		cfg := DefaultConfig()
		cfg.VMBytes = 512 + int(vmRaw)*64
		tm, tk, tn := SelectTiles(nn.KindConv, m, k, n, 9, cfg)
		budget := int(float64(cfg.VMBytes) * cfg.VMUtil / float64(cfg.ElemBytes))
		if budget < 16 {
			budget = 16
		}
		elems := 2*(tm*tk+tk*tn) + m*tn
		// The selection must fit unless even minimal tiles cannot (the
		// M-row partial panel alone can exceed a tiny budget).
		return elems <= budget || (tn == 1 && tk == 1 && 2*(tm+1)+m > budget)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func buildTestNet(t *testing.T) *nn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	n := nn.NewNetwork("t", 4)
	n.Add(nn.NewConv2D("c1", tensor.ConvGeom{InC: 2, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, rng))
	n.Add(nn.NewReLU("r1"))
	n.Add(nn.NewMaxPool2D("p1", 4, 8, 8, 2, 2))
	n.Add(nn.NewFlatten("fl"))
	n.Add(nn.NewFC("f1", 4*4*4, 4, rng))
	return n
}

func TestSpecsFromNetwork(t *testing.T) {
	net := buildTestNet(t)
	cfg := DefaultConfig()
	specs := SpecsFromNetwork(net, cfg)
	if len(specs) != 2 {
		t.Fatalf("specs = %d, want 2", len(specs))
	}
	c := specs[0]
	if c.Kind != nn.KindConv || c.M != 4 || c.K != 18 || c.N != 64 || c.KHKW != 9 {
		t.Errorf("conv spec = %+v", c)
	}
	f := specs[1]
	if f.Kind != nn.KindFC || f.M != 4 || f.K != 64 || f.N != 1 {
		t.Errorf("fc spec = %+v", f)
	}
	if c.Index != 0 || f.Index != 1 {
		t.Error("spec indices wrong")
	}
}

func TestInstallMasksMatchesSpecs(t *testing.T) {
	net := buildTestNet(t)
	cfg := DefaultConfig()
	specs := SpecsFromNetwork(net, cfg)
	InstallMasks(net, specs)
	for i, p := range net.Prunables() {
		m := p.Mask()
		if m == nil {
			t.Fatalf("layer %d has no mask", i)
		}
		if m.BM != specs[i].TM || m.BK != specs[i].TK {
			t.Errorf("layer %d mask block %dx%d, spec tile %dx%d", i, m.BM, m.BK, specs[i].TM, specs[i].TK)
		}
	}
}

func TestEnsureMasks(t *testing.T) {
	net := buildTestNet(t)
	specs := SpecsFromNetwork(net, DefaultConfig())
	if err := EnsureMasks(net, specs); err != nil {
		t.Fatal(err)
	}
	first := net.Prunables()[0]
	m := first.Mask()
	if m == nil || m.BM != specs[0].TM || m.BK != specs[0].TK {
		t.Fatalf("installed mask %+v does not match spec %+v", m, specs[0])
	}
	m.Keep[0] = false // a pruned mask with the right geometry is kept
	if err := EnsureMasks(net, specs); err != nil || first.Mask() != m {
		t.Fatalf("matching mask replaced or rejected: %v", err)
	}
	if err := EnsureMasks(net, specs[1:]); err == nil {
		t.Error("spec count mismatch accepted")
	}
	first.InitBlocks(1, 1)
	if err := EnsureMasks(net, specs); err == nil {
		t.Error("mismatched mask geometry accepted")
	}
}

func TestCountLayerUnprunedIdentities(t *testing.T) {
	cfg := DefaultConfig()
	spec := LayerSpec{Name: "c", Kind: nn.KindConv, M: 4, K: 18, N: 64, KHKW: 9}
	spec.TM, spec.TK, spec.TN = SelectTiles(spec.Kind, spec.M, spec.K, spec.N, spec.KHKW, cfg)
	c := CountLayer(&spec, nil, Intermittent, cfg)
	// MACs must equal M*K*N exactly for the unpruned layer.
	if c.MACs != int64(4*18*64) {
		t.Errorf("MACs = %d, want %d", c.MACs, 4*18*64)
	}
	// Jobs = M*N*ceil(K/TK): every output accumulated once per k-block.
	wantJobs := int64(4 * 64 * ((18 + spec.TK - 1) / spec.TK))
	if c.Jobs != wantJobs {
		t.Errorf("Jobs = %d, want %d", c.Jobs, wantJobs)
	}
	if c.OutputWrite != c.Jobs*int64(cfg.ElemBytes) {
		t.Errorf("OutputWrite = %d, want Jobs*ElemBytes = %d", c.OutputWrite, c.Jobs*2)
	}
	if c.IndicatorWrite != c.Ops*int64(cfg.IndicatorBytes) {
		t.Errorf("IndicatorWrite = %d, want %d", c.IndicatorWrite, c.Ops*8)
	}
}

func TestCountLayerContinuousVsIntermittent(t *testing.T) {
	cfg := DefaultConfig()
	spec := LayerSpec{Name: "c", Kind: nn.KindConv, M: 8, K: 36, N: 100, KHKW: 9}
	spec.TM, spec.TK, spec.TN = SelectTiles(spec.Kind, spec.M, spec.K, spec.N, spec.KHKW, cfg)
	ci := CountLayer(&spec, nil, Intermittent, cfg)
	cc := CountLayer(&spec, nil, Continuous, cfg)
	if cc.MACs != ci.MACs || cc.Jobs != ci.Jobs {
		t.Error("mode must not change MACs/Jobs")
	}
	// Continuous writes the OFM once: M*N elements.
	if cc.OutputWrite != int64(8*100*cfg.ElemBytes) {
		t.Errorf("continuous OutputWrite = %d, want %d", cc.OutputWrite, 8*100*2)
	}
	if cc.IndicatorWrite != 0 || cc.PartialRead != 0 {
		t.Error("continuous mode must not write indicators or re-read partials")
	}
	if ci.TotalNVMWrite() <= cc.TotalNVMWrite() {
		t.Error("intermittent mode must write more than continuous")
	}
}

func TestCountLayerMaskedReducesEverything(t *testing.T) {
	cfg := DefaultConfig()
	spec := LayerSpec{Name: "f", Kind: nn.KindFC, M: 16, K: 64, N: 1}
	spec.TM, spec.TK, spec.TN = SelectTiles(spec.Kind, spec.M, spec.K, spec.N, 0, cfg)
	mask := nn.NewBlockMask(spec.M, spec.K, spec.TM, spec.TK)
	full := CountLayer(&spec, mask, Intermittent, cfg)
	// Prune half the blocks.
	for b := 0; b < mask.NumBlocks(); b += 2 {
		mask.Keep[b] = false
	}
	half := CountLayer(&spec, mask, Intermittent, cfg)
	if half.Jobs >= full.Jobs || half.MACs >= full.MACs || half.Ops >= full.Ops {
		t.Errorf("pruning did not reduce: %+v vs %+v", half, full)
	}
	if half.TotalNVMWrite() >= full.TotalNVMWrite() {
		t.Error("pruning did not reduce NVM writes")
	}
}

func TestCountLayerAllPrunedIsZero(t *testing.T) {
	cfg := DefaultConfig()
	spec := LayerSpec{Name: "f", Kind: nn.KindFC, M: 4, K: 32, N: 1}
	spec.TM, spec.TK, spec.TN = SelectTiles(spec.Kind, spec.M, spec.K, spec.N, 0, cfg)
	mask := nn.NewBlockMask(spec.M, spec.K, spec.TM, spec.TK)
	for b := range mask.Keep {
		mask.Keep[b] = false
	}
	c := CountLayer(&spec, mask, Intermittent, cfg)
	if c.Jobs != 0 || c.MACs != 0 || c.Ops != 0 || c.TotalNVMWrite() != 0 {
		t.Errorf("all-pruned layer should cost nothing: %+v", c)
	}
}

func TestCountLayerMaskGeometryValidated(t *testing.T) {
	cfg := DefaultConfig()
	spec := LayerSpec{Name: "f", Kind: nn.KindFC, M: 4, K: 32, N: 1, TM: 2, TK: 8, TN: 1}
	mask := nn.NewBlockMask(4, 32, 1, 8) // BM mismatch
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mask/spec mismatch")
		}
	}()
	CountLayer(&spec, mask, Intermittent, cfg)
}

func TestCountLayerJobsLinearInBlocks(t *testing.T) {
	// Property: jobs removed by pruning one full block equals
	// JobsPerBlock for interior blocks.
	cfg := DefaultConfig()
	spec := LayerSpec{Name: "c", Kind: nn.KindConv, M: 8, K: 27, N: 50, KHKW: 9}
	spec.TM, spec.TK, spec.TN = SelectTiles(spec.Kind, spec.M, spec.K, spec.N, spec.KHKW, cfg)
	mask := nn.NewBlockMask(spec.M, spec.K, spec.TM, spec.TK)
	before := CountLayer(&spec, mask, Intermittent, cfg).Jobs
	mask.Keep[0] = false // block (0,0) is always full-size
	after := CountLayer(&spec, mask, Intermittent, cfg).Jobs
	if before-after != JobsPerBlock(&spec) {
		t.Errorf("delta jobs = %d, want %d", before-after, JobsPerBlock(&spec))
	}
}

func TestCountNetworkAggregates(t *testing.T) {
	net := buildTestNet(t)
	cfg := DefaultConfig()
	specs := SpecsFromNetwork(net, cfg)
	InstallMasks(net, specs)
	total := CountNetwork(net, specs, Intermittent, cfg)
	var manual Counts
	prunables := net.Prunables()
	for i := range specs {
		manual.Add(CountLayer(&specs[i], prunables[i].Mask(), Intermittent, cfg))
	}
	if total != manual {
		t.Errorf("CountNetwork = %+v, manual = %+v", total, manual)
	}
	jobs := LayerJobs(net, specs, cfg)
	var sum int64
	for _, j := range jobs {
		sum += j
	}
	if sum != total.Jobs {
		t.Errorf("LayerJobs sum = %d, total = %d", sum, total.Jobs)
	}
}

func TestDiversity(t *testing.T) {
	if d := Diversity([]int64{100, 100, 100}); d != 0 {
		t.Errorf("uniform diversity = %v, want 0", d)
	}
	low := Diversity([]int64{90, 100, 110})
	high := Diversity([]int64{1, 1, 1000})
	if low >= high {
		t.Errorf("diversity ordering wrong: low=%v high=%v", low, high)
	}
	if DiversityLabel(0.1) != "Low" || DiversityLabel(1.0) != "Medium" || DiversityLabel(2.5) != "High" {
		t.Error("diversity labels wrong")
	}
	if Diversity(nil) != 0 {
		t.Error("empty diversity should be 0")
	}
}

func TestModeString(t *testing.T) {
	if Continuous.String() != "continuous" || Intermittent.String() != "intermittent" {
		t.Error("mode strings wrong")
	}
}

func TestSteadyStatePreservationIsWriteOnly(t *testing.T) {
	// Partials accumulate in the VM-resident panel; preservation only
	// writes. PartialRead is reserved for recovery accounting and must be
	// zero in analytic schedules.
	cfg := DefaultConfig()
	spec := LayerSpec{Name: "f", Kind: nn.KindFC, M: 2, K: 64, N: 1}
	spec.TM, spec.TK, spec.TN = SelectTiles(spec.Kind, spec.M, spec.K, spec.N, 0, cfg)
	c := CountLayer(&spec, nil, Intermittent, cfg)
	if c.PartialRead != 0 {
		t.Errorf("PartialRead = %d, want 0 in steady state", c.PartialRead)
	}
	if c.OutputWrite == 0 {
		t.Error("intermittent mode must write outputs")
	}
}

func TestSelectTilesPartialPanelFitsVM(t *testing.T) {
	// The whole M×TN partial panel must fit the VM budget together with
	// the double-buffered operand tiles.
	cfg := DefaultConfig()
	for _, m := range []int{8, 96, 256} {
		tm, tk, tn := SelectTiles(nn.KindConv, m, 864, 1024, 9, cfg)
		budget := int(float64(cfg.VMBytes) * cfg.VMUtil / float64(cfg.ElemBytes))
		if 2*(tm*tk+tk*tn)+m*tn > budget {
			t.Errorf("M=%d: tiles %dx%dx%d overflow VM budget", m, tm, tk, tn)
		}
	}
}

func TestSpecsRecurseIntoBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := nn.NewNetwork("fire", 3)
	n.Add(nn.NewConv2D("sq", tensor.ConvGeom{InC: 2, InH: 8, InW: 8, OutC: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, rng))
	n.Add(nn.NewBranch("ex",
		[]nn.Layer{nn.NewConv2D("e1", tensor.ConvGeom{InC: 4, InH: 8, InW: 8, OutC: 3, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, rng)},
		[]nn.Layer{nn.NewConv2D("e3", tensor.ConvGeom{InC: 4, InH: 8, InW: 8, OutC: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, rng)},
	))
	n.Add(nn.NewGlobalAvgPool("gap", 8, 8, 8))
	n.Add(nn.NewFC("fc", 8, 3, rng))
	cfg := DefaultConfig()
	specs := SpecsFromNetwork(n, cfg)
	if len(specs) != 4 {
		t.Fatalf("specs = %d, want 4 (squeeze + both expands + fc)", len(specs))
	}
	names := []string{"sq", "e1", "e3", "fc"}
	for i, s := range specs {
		if s.Name != names[i] {
			t.Errorf("spec %d = %s, want %s (walk order)", i, s.Name, names[i])
		}
	}
	// InstallMasks must pair with the same traversal order.
	InstallMasks(n, specs)
	for i, p := range n.Prunables() {
		if p.Name() != names[i] {
			t.Errorf("prunable %d = %s, want %s", i, p.Name(), names[i])
		}
		if p.Mask() == nil {
			t.Errorf("prunable %s missing mask", p.Name())
		}
	}
	c := CountNetwork(n, specs, Intermittent, cfg)
	if c.Jobs <= 0 {
		t.Error("branch network produced no jobs")
	}
}
