package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"iprune/internal/dataset"
	"iprune/internal/models"
	"iprune/internal/nn"
	"iprune/internal/tensor"
)

// refTrainEpoch is the sequential epoch loop TrainEpoch and
// TrainEpochAdam ran before their batches fanned out, kept verbatim
// (with the optimizer's Step as a parameter) as the reference the
// data-parallel epoch must match bit for bit.
func refTrainEpoch(n *nn.Network, samples []nn.Sample, step func(*nn.Network, int), batch int, rng *rand.Rand) float64 {
	if batch <= 0 {
		batch = 16
	}
	idx := rng.Perm(len(samples))
	var total float64
	for start := 0; start < len(idx); start += batch {
		end := min(start+batch, len(idx))
		n.ZeroGrads()
		for _, i := range idx[start:end] {
			s := samples[i]
			total += n.LossBackward(s.X, s.Label)
		}
		step(n, end-start)
	}
	return total / float64(len(samples))
}

// refAccuracy is Accuracy's sequential loop, kept verbatim.
func refAccuracy(n *nn.Network, samples []nn.Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if n.Predict(s.X) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

var widths = []int{1, 2, 3, 8}

func floatPredictor(n *nn.Network) func(*tensor.Tensor) int { return n.Predict }

// pruneSome installs 2×4 block masks on every prunable layer and prunes
// every third block.
func pruneSome(n *nn.Network) *nn.Network {
	for _, p := range n.Prunables() {
		p.InitBlocks(2, 4)
		for b := range p.Mask().Keep {
			p.Mask().Keep[b] = b%3 != 1
		}
		p.ApplyMask()
	}
	return n
}

func randomSamples(rng *rand.Rand, count, classes int, shape ...int) []nn.Sample {
	out := make([]nn.Sample, count)
	for i := range out {
		x := tensor.New(shape...)
		for j := range x.Data {
			x.Data[j] = rng.Float32()*2 - 1
		}
		out[i] = nn.Sample{X: x, Label: rng.Intn(classes)}
	}
	return out
}

type widthCase struct {
	name    string
	net     func() *nn.Network
	samples []nn.Sample
	batch   int
}

// widthCases are kept small: check.sh repeats the width tests ten
// times under the race detector.
func widthCases() []widthCase {
	har := dataset.HAR(dataset.Config{Train: 7, Test: 1, Noise: 0.87}, 3).Train
	cks := dataset.Speech(dataset.Config{Train: 3, Test: 1, Noise: 0.88}, 4).Train
	fire := randomSamples(rand.New(rand.NewSource(5)), 11, 3, 2, 6, 6)
	return []widthCase{
		{"HAR/ragged", func() *nn.Network { return models.HAR(1) }, har, 3},
		{"HAR/pruned", func() *nn.Network { return pruneSome(models.HAR(2)) }, har[:5], 2},
		{"HAR/batch>samples", func() *nn.Network { return models.HAR(1) }, har[:2], 16},
		{"HAR/default-batch", func() *nn.Network { return models.HAR(1) }, har[:3], 0},
		{"HAR/empty", func() *nn.Network { return models.HAR(1) }, nil, 4},
		{"CKS/pruned-ragged", func() *nn.Network { return pruneSome(models.CKS(3)) }, cks, 2},
		{"fireNet/ragged", func() *nn.Network { return nn.FireNet(rand.New(rand.NewSource(6))) }, fire, 4},
	}
}

// sameBits reports the first parameter of want and got whose data or
// gradient differs in any bit.
func sameBits(t *testing.T, what string, want, got *nn.Network) {
	t.Helper()
	for i, l := range want.Layers {
		for j, p := range l.Params() {
			q := got.Layers[i].Params()[j]
			for k := range p.Data {
				if math.Float32bits(p.Data[k]) != math.Float32bits(q.Data[k]) ||
					math.Float32bits(p.Grad[k]) != math.Float32bits(q.Grad[k]) {
					t.Fatalf("%s: %s param %d [%d]: data %v grad %v, want data %v grad %v",
						what, l.Name(), j, k, q.Data[k], q.Grad[k], p.Data[k], p.Grad[k])
				}
			}
		}
	}
}

// TestTrainEpochWidthBitIdentical runs two epochs at widths 1, 2, 3
// and 8 and requires every weight, gradient and loss, and the accuracy,
// to equal the sequential reference's bit for bit.
func TestTrainEpochWidthBitIdentical(t *testing.T) {
	for _, c := range widthCases() {
		ref, opt, rng := c.net(), nn.NewSGD(0.05, 0.9), rand.New(rand.NewSource(7))
		losses := []float64{
			refTrainEpoch(ref, c.samples, opt.Step, c.batch, rng),
			refTrainEpoch(ref, c.samples, opt.Step, c.batch, rng),
		}
		acc := refAccuracy(ref, c.samples)
		for _, w := range widths {
			got, opt, rng := c.net(), nn.NewSGD(0.05, 0.9), rand.New(rand.NewSource(7))
			for e, want := range losses {
				if have := nn.TrainEpochWidth(got, c.samples, opt, c.batch, rng, w); math.Float64bits(have) != math.Float64bits(want) {
					t.Fatalf("%s width %d epoch %d: loss %v, want %v", c.name, w, e, have, want)
				}
			}
			sameBits(t, c.name, ref, got)
			if have := nn.Evaluate(got, c.samples, w, floatPredictor); math.Float64bits(have) != math.Float64bits(acc) {
				t.Fatalf("%s width %d: accuracy %v, want %v", c.name, w, have, acc)
			}
		}
	}
}

// TestTrainEpochAdamWidthBitIdentical is the Adam counterpart, on the
// branch network and a pruned HAR.
func TestTrainEpochAdamWidthBitIdentical(t *testing.T) {
	for _, c := range widthCases() {
		if c.name != "fireNet/ragged" && c.name != "HAR/pruned" {
			continue
		}
		ref, opt, rng := c.net(), nn.NewAdam(0.01), rand.New(rand.NewSource(8))
		losses := []float64{
			refTrainEpoch(ref, c.samples, opt.Step, c.batch, rng),
			refTrainEpoch(ref, c.samples, opt.Step, c.batch, rng),
		}
		for _, w := range widths {
			got, opt, rng := c.net(), nn.NewAdam(0.01), rand.New(rand.NewSource(8))
			for e, want := range losses {
				if have := nn.TrainEpochAdamWidth(got, c.samples, opt, c.batch, rng, w); math.Float64bits(have) != math.Float64bits(want) {
					t.Fatalf("%s width %d epoch %d: loss %v, want %v", c.name, w, e, have, want)
				}
			}
			sameBits(t, c.name, ref, got)
		}
	}
}

// refLossBackward is LossBackward running every layer's Backward, the
// first layer's included, kept as the reference for the pass that
// skips the network input's gradient.
func refLossBackward(n *nn.Network, in *tensor.Tensor, label int) float64 {
	logits := n.Forward(in)
	probs := nn.Softmax(logits.Data)
	loss := -math.Log(math.Max(probs[label], 1e-12))
	g := tensor.New(len(logits.Data))
	for i, p := range probs {
		g.Data[i] = float32(p)
	}
	g.Data[label] -= 1
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].Backward(g)
	}
	return loss
}

// TestLossBackwardMatchesFullChain requires LossBackward's loss and
// every parameter gradient, accumulated over several samples, to equal
// bit for bit those of the chain that also computes the first layer's
// input gradient. The width tests cannot see this: their sequential
// reference calls LossBackward itself.
func TestLossBackwardMatchesFullChain(t *testing.T) {
	for _, c := range widthCases() {
		if len(c.samples) == 0 {
			continue
		}
		ref, got := c.net(), c.net()
		ref.ZeroGrads()
		got.ZeroGrads()
		for _, s := range c.samples {
			want := refLossBackward(ref, s.X, s.Label)
			if have := got.LossBackward(s.X, s.Label); math.Float64bits(have) != math.Float64bits(want) {
				t.Fatalf("%s: loss %v, want %v", c.name, have, want)
			}
		}
		sameBits(t, c.name, ref, got)
	}
}

// TestWarmPassesDoNotAllocate pins the allocations of a warmed HAR
// Predict and LossBackward: every layer reuses its own buffers.
func TestWarmPassesDoNotAllocate(t *testing.T) {
	net := models.HAR(1)
	s := dataset.HAR(dataset.Config{Train: 1, Test: 1, Noise: 0.87}, 1).Train[0]
	net.LossBackward(s.X, s.Label)
	if a := testing.AllocsPerRun(20, func() { net.Predict(s.X) }); a != 0 {
		t.Errorf("warm Predict: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { net.LossBackward(s.X, s.Label) }); a != 0 {
		t.Errorf("warm LossBackward: %v allocs, want 0", a)
	}
}
