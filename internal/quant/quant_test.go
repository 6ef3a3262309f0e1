package quant

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"iprune/internal/dataset"
	"iprune/internal/fixed"
	"iprune/internal/models"
	"iprune/internal/nn"
	"iprune/internal/tensor"
	"iprune/internal/tile"
)

func buildNet(seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	n := nn.NewNetwork("q", 3)
	n.Add(nn.NewConv2D("c1", tensor.ConvGeom{InC: 1, InH: 6, InW: 6, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, rng))
	n.Add(nn.NewReLU("r1"))
	n.Add(nn.NewMaxPool2D("p1", 4, 6, 6, 2, 2))
	n.Add(nn.NewFlatten("fl"))
	n.Add(nn.NewFC("f1", 4*3*3, 3, rng))
	return n
}

func TestDeployProducesAllLayers(t *testing.T) {
	net := buildNet(1)
	cfg := tile.DefaultConfig()
	specs := tile.SpecsFromNetwork(net, cfg)
	tile.InstallMasks(net, specs)
	m, err := Deploy(net, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Layers) != 2 {
		t.Fatalf("layers = %d, want 2", len(m.Layers))
	}
	if m.SizeBytes() <= 0 {
		t.Error("SizeBytes must be positive")
	}
}

func TestDeploySizeShrinksWithPruning(t *testing.T) {
	net := buildNet(2)
	cfg := tile.DefaultConfig()
	specs := tile.SpecsFromNetwork(net, cfg)
	tile.InstallMasks(net, specs)
	full, err := Deploy(net, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range net.Prunables() {
		mask := p.Mask()
		for b := 0; b < mask.NumBlocks(); b += 2 {
			mask.Keep[b] = false
		}
		p.ApplyMask()
	}
	pruned, err := Deploy(net, specs)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.SizeBytes() >= full.SizeBytes() {
		t.Errorf("pruned size %d >= full %d", pruned.SizeBytes(), full.SizeBytes())
	}
}

func TestDeploySpecMismatch(t *testing.T) {
	net := buildNet(3)
	if _, err := Deploy(net, nil); err == nil {
		t.Error("expected error for missing specs")
	}
}

func TestQuantizeWeightsCloseToFloat(t *testing.T) {
	net := buildNet(4)
	q := QuantizeWeights(net)
	for i, p := range net.Prunables() {
		w, _, _ := p.WeightMatrix()
		qw, _, _ := q.Prunables()[i].WeightMatrix()
		var maxAbs float64
		for _, v := range w {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		tol := math.Max(maxAbs, 1) / (1 << 14)
		for j := range w {
			if math.Abs(float64(qw[j]-w[j])) > tol {
				t.Fatalf("layer %d weight %d: quantized %v vs %v", i, j, qw[j], w[j])
			}
		}
	}
	// Original must be untouched.
	if &net.Layers[0].(*nn.Conv2D).W.Data[0] == &q.Layers[0].(*nn.Conv2D).W.Data[0] {
		t.Error("QuantizeWeights did not clone")
	}
}

func TestForwardQ15MatchesFloatOnEasyInput(t *testing.T) {
	net := buildNet(5)
	rng := rand.New(rand.NewSource(6))
	q := QuantizeWeights(net)
	agree := 0
	const n = 50
	for i := 0; i < n; i++ {
		in := tensor.New(1, 6, 6)
		for j := range in.Data {
			in.Data[j] = rng.Float32()*2 - 1
		}
		if net.Predict(in) == PredictQ15(q, in) {
			agree++
		}
	}
	if agree < n*9/10 {
		t.Errorf("float/Q15 agreement %d/%d too low", agree, n)
	}
}

func TestAccuracyQ15Empty(t *testing.T) {
	net := buildNet(7)
	if AccuracyQ15(net, nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
}

func TestAccuracyQ15OnSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := buildNet(9)
	var samples []nn.Sample
	for i := 0; i < 60; i++ {
		label := i % 3
		x := tensor.New(1, 6, 6)
		for j := range x.Data {
			x.Data[j] = float32(rng.NormFloat64()*0.2) + float32(label-1)*0.5
		}
		samples = append(samples, nn.Sample{X: x, Label: label})
	}
	opt := nn.NewSGD(0.05, 0.9)
	for e := 0; e < 8; e++ {
		nn.TrainEpoch(net, samples, opt, 8, rng)
	}
	floatAcc := nn.Accuracy(net, samples)
	q := QuantizeWeights(net)
	qAcc := AccuracyQ15(q, samples)
	if floatAcc < 0.9 {
		t.Fatalf("float accuracy too low to test quantization: %v", floatAcc)
	}
	if math.Abs(qAcc-floatAcc) > 0.1 {
		t.Errorf("Q15 accuracy %v deviates from float %v", qAcc, floatAcc)
	}
}

// refAccuracyQ15 is AccuracyQ15's sequential loop from before it fanned
// out, kept verbatim as the reference nn.Evaluate with PredictorQ15 must
// match at any width.
func refAccuracyQ15(net *nn.Network, samples []nn.Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if PredictQ15(net, s.X) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// TestAccuracyQ15WidthBitIdentical evaluates quantized HAR and CKS
// models at widths 1, 2, 3 and 8. Every other sample is relabelled to
// the reference's own prediction and the rest away from it, so a single
// prediction that differs from the reference moves the accuracy.
func TestAccuracyQ15WidthBitIdentical(t *testing.T) {
	har := dataset.HAR(dataset.Config{Train: 1, Test: 13, Noise: 0.87}, 2)
	cks := dataset.Speech(dataset.Config{Train: 1, Test: 5, Noise: 0.88}, 3)
	for _, c := range []struct {
		net     *nn.Network
		samples []nn.Sample
	}{
		{QuantizeWeights(models.HAR(4)), har.Test},
		{QuantizeWeights(models.CKS(5)), cks.Test},
		{QuantizeWeights(models.HAR(4)), nil},
	} {
		for i, s := range c.samples {
			c.samples[i].Label = (PredictQ15(c.net, s.X) + i%2) % c.net.Classes
		}
		want := refAccuracyQ15(c.net, c.samples)
		for _, w := range []int{1, 2, 3, 8} {
			if got := nn.Evaluate(c.net, c.samples, w, PredictorQ15); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s, %d samples, width %d: accuracy %v, want %v", c.net.Name, len(c.samples), w, got, want)
			}
		}
		if got := AccuracyQ15(c.net, c.samples); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s, %d samples: AccuracyQ15 %v, want %v", c.net.Name, len(c.samples), got, want)
		}
	}
}

// refForwardQ15 is forwardQ15 before it skipped roundings: every
// layer's output is rounded. forwardQ15 must match it bit for bit.
func refForwardQ15(net *nn.Network, x *tensor.Tensor) *tensor.Tensor {
	fixed.FakeQuantize(x.Data)
	for _, l := range net.Layers {
		x = l.Forward(x)
		fixed.FakeQuantize(x.Data)
	}
	return x
}

// sameBits reports whether two logit slices hold the same float32 bits.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestForwardQ15MatchesRoundEveryLayer runs the three paper models,
// untrained and after one epoch, through forwardQ15 and refForwardQ15.
func TestForwardQ15MatchesRoundEveryLayer(t *testing.T) {
	cfg := dataset.Config{Train: 32, Test: 24, Noise: 0.5}
	for _, c := range []struct {
		net *nn.Network
		ds  *dataset.Dataset
	}{
		{models.HAR(1), dataset.HAR(cfg, 1)},
		{models.CKS(1), dataset.Speech(cfg, 1)},
		{models.SQN(1), dataset.Images(cfg, 1)},
	} {
		for _, trained := range []bool{false, true} {
			if trained {
				nn.TrainEpoch(c.net, c.ds.Train, nn.NewSGD(0.02, 0.9), 8, rand.New(rand.NewSource(2)))
			}
			q := QuantizeWeights(c.net)
			for i, s := range c.ds.Test {
				want := slices.Clone(refForwardQ15(q, s.X.Clone()).Data)
				if got := ForwardQ15(q, s.X).Data; !sameBits(got, want) {
					t.Fatalf("%s (trained %v), sample %d: logits %v, want %v", c.net.Name, trained, i, got, want)
				}
			}
		}
	}
}

// A max-pool or Flatten whose input may be negative is rounded: here a
// conv's rounded output holds -2^s, so its shift is s+1 and rounding it
// again moves 2^-13 to 2^-12.
func TestForwardQ15RoundsFlattenAfterConv(t *testing.T) {
	net := nn.NewNetwork("neg", 2)
	conv := nn.NewConv2D("c", tensor.ConvGeom{InC: 1, InH: 1, InW: 2, OutC: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, rand.New(rand.NewSource(1)))
	conv.W.Data[0] = 8 + 0x1p-13 // the input [-0.5, 0] makes the conv output [-(4 - 2^-14), 2^-13]
	conv.B.Data[0] = 0x1p-13
	net.Add(conv)
	net.Add(nn.NewFlatten("fl"))
	in := tensor.New(1, 1, 2)
	in.Data[0] = -0.5
	want := slices.Clone(refForwardQ15(net, in.Clone()).Data)
	if want[0] != -4 || want[1] != 0x1p-12 {
		t.Fatalf("reference logits %v, want [-4 2^-12]", want)
	}
	if got := ForwardQ15(net, in).Data; !sameBits(got, want) {
		t.Errorf("logits %v, want %v", got, want)
	}
}
