package nn

import (
	"math"
	"math/rand"
	"testing"

	"iprune/internal/tensor"
)

// layerKinds returns one layer of every kind with the CHW input shape
// it takes. Inputs and gradients are random, so ReLU masks and pooling
// argmaxes differ between samples.
func layerKinds(rng *rand.Rand) []struct {
	l  Layer
	in []int
} {
	conv := func(name string, inC, outC, k, pad int) *Conv2D {
		return NewConv2D(name, tensor.ConvGeom{InC: inC, InH: 6, InW: 6, OutC: outC, KH: k, KW: k, StrideH: 1, StrideW: 1, PadH: pad, PadW: pad}, rng)
	}
	return []struct {
		l  Layer
		in []int
	}{
		{conv("conv", 3, 4, 3, 1), []int{3, 6, 6}},
		{NewFC("fc", 12, 5, rng), []int{12}},
		{NewMaxPool2D("maxpool", 3, 6, 6, 2, 2), []int{3, 6, 6}},
		{NewAvgPool2D("avgpool", 3, 6, 6, 3, 1), []int{3, 6, 6}},
		{NewGlobalAvgPool("gap", 3, 6, 6), []int{3, 6, 6}},
		{NewReLU("relu"), []int{3, 6, 6}},
		{NewFlatten("flatten"), []int{3, 6, 6}},
		{NewBranch("branch",
			[]Layer{conv("b1", 3, 2, 1, 0), NewReLU("b1r")},
			[]Layer{conv("b3", 3, 3, 3, 1), NewReLU("b3r"), NewMaxPool2D("b3p", 3, 6, 6, 1, 1)},
		), []int{3, 6, 6}},
	}
}

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

// pass runs one forward and backward pass from zeroed gradients and
// returns copies of the output, the input gradient and every parameter
// gradient.
func pass(l Layer, in, gradOut *tensor.Tensor) [][]float32 {
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	out := append([]float32(nil), l.Forward(in).Data...)
	got := [][]float32{out, append([]float32(nil), l.Backward(gradOut).Data...)}
	for _, p := range l.Params() {
		got = append(got, append([]float32(nil), p.Grad...))
	}
	return got
}

func bitsEqual(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestLayerBuffersIsolateSamples runs sample A and then sample B
// through every layer kind and requires B's output, input gradient and
// parameter gradients to equal, bit for bit, those of a fresh clone that
// runs only B. A reused buffer that a layer adds into without clearing
// it first (the input gradients of MaxPool2D, AvgPool2D, Branch and FC)
// leaks A into B and fails it.
func TestLayerBuffersIsolateSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range layerKinds(rng) {
		fresh := c.l.Clone()
		a, b := randTensor(rng, c.in...), randTensor(rng, c.in...)
		outShape := fresh.Clone().Forward(a).Shape
		ga, gb := randTensor(rng, outShape...), randTensor(rng, outShape...)
		pass(c.l, a, ga)
		if !bitsEqual(pass(c.l, b, gb), pass(fresh, b, gb)) {
			t.Errorf("%s: sample B after A differs from B alone", c.l.Name())
		}
	}
}

// TestCloneSharesNoBuffer clones every layer kind, warmed, between its
// forward and backward pass and after both, runs the clone on another
// sample each time, and requires the original's results to be those of
// an uninterrupted pass and its returned tensors to stay unchanged.
func TestCloneSharesNoBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, c := range layerKinds(rng) {
		ref := c.l.Clone()
		a, b := randTensor(rng, c.in...), randTensor(rng, c.in...)
		outShape := ref.Clone().Forward(a).Shape
		ga, gb := randTensor(rng, outShape...), randTensor(rng, outShape...)
		want := pass(ref, a, ga)
		pass(c.l, b, gb) // warm every buffer before cloning

		for _, p := range c.l.Params() {
			p.ZeroGrad()
		}
		out := c.l.Forward(a)
		pass(c.l.Clone(), b, gb)
		gradIn := c.l.Backward(ga)
		got := [][]float32{out.Data, gradIn.Data}
		for _, p := range c.l.Params() {
			got = append(got, p.Grad)
		}
		if !bitsEqual(got, want) {
			t.Errorf("%s: a clone run between Forward and Backward changed the pass", c.l.Name())
		}
		pass(c.l.Clone(), b, gb)
		if !bitsEqual(got, want) {
			t.Errorf("%s: a clone run after the pass changed its results", c.l.Name())
		}
	}
}
