// Package quant converts trained float32 networks into the 16-bit
// fixed-point deployment form used on the device (paper Section IV-A:
// "model parameters are quantized from the 32-bit floating point
// representation used during pruning to a 16-bit fixed point
// representation, without a significant accuracy loss").
//
// Two things live here: (1) the deployable model — every prunable layer's
// weights in BSR Q15 form plus quantized biases, with exact NVM size
// accounting; and (2) deployment-accuracy evaluation, which runs the
// float network with weights and activations rounded through Q15 at every
// layer boundary, so the measured accuracy is the accuracy of the values
// the device actually computes with.
package quant

import (
	"fmt"
	"runtime"
	"slices"

	"iprune/internal/fixed"
	"iprune/internal/nn"
	"iprune/internal/sparse"
	"iprune/internal/tensor"
	"iprune/internal/tile"
)

// LayerWeights is the deployable form of one prunable layer.
type LayerWeights struct {
	Name    string
	Weights *sparse.Matrix
	Biases  fixed.Tensor
}

// Model is a deployable quantized model.
type Model struct {
	Name   string
	Layers []LayerWeights
}

// Deploy quantizes the network's prunable layers into BSR form using the
// block geometry from specs (which must come from the same network).
func Deploy(net *nn.Network, specs []tile.LayerSpec) (*Model, error) {
	prunables := net.Prunables()
	if len(prunables) != len(specs) {
		return nil, fmt.Errorf("quant: %d specs for %d prunable layers", len(specs), len(prunables))
	}
	m := &Model{Name: net.Name}
	for i, p := range prunables {
		w, rows, cols := p.WeightMatrix()
		sm, err := sparse.FromDense(w, rows, cols, p.Mask(), specs[i].TM, specs[i].TK)
		if err != nil {
			return nil, fmt.Errorf("quant: layer %s: %w", specs[i].Name, err)
		}
		var bias []float32
		switch v := p.(type) {
		case *nn.Conv2D:
			bias = v.B.Data
		case *nn.FC:
			bias = v.B.Data
		}
		m.Layers = append(m.Layers, LayerWeights{
			Name:    specs[i].Name,
			Weights: sm,
			Biases:  fixed.QuantizeSlice(bias),
		})
	}
	return m, nil
}

// SizeBytes reports the model's NVM footprint: BSR payloads and indices
// plus biases — "all model parameters and indexing structures in the BSR
// format" (Table III).
func (m *Model) SizeBytes() int {
	total := 0
	for _, l := range m.Layers {
		total += l.Weights.SizeBytes() + l.Biases.SizeBytes()
	}
	return total
}

// QuantizeWeights returns a clone of the network whose prunable-layer
// weights and biases have been rounded through Q15 (per-tensor shift).
func QuantizeWeights(net *nn.Network) *nn.Network {
	c := net.Clone()
	for _, p := range c.Prunables() {
		w, _, _ := p.WeightMatrix()
		fixed.FakeQuantize(w)
		p.ApplyMask()
		switch v := p.(type) {
		case *nn.Conv2D:
			fixed.FakeQuantize(v.B.Data)
		case *nn.FC:
			fixed.FakeQuantize(v.B.Data)
		}
	}
	return c
}

// ForwardQ15 runs one sample through the network, rounding the activations
// through Q15 after every layer — the deployment numerics. The input is
// rounded too, in a copy. Returns the logits, which belong to the last
// layer (see nn.Layer).
func ForwardQ15(net *nn.Network, in *tensor.Tensor) *tensor.Tensor {
	return forwardQ15(net, in.Clone())
}

// forwardQ15 is ForwardQ15 rounding the input x in place. It skips the
// roundings that cannot move a bit. Every layer's input is already
// rounded, on the Q1.15 grid of its shift s. A ReLU keeps a non-negative
// subset of those values, whose shift is at most s, so rounding them
// again is the identity. A max-pool or Flatten keeps a subset too, but
// that subset may hold -2^s, whose shift is s+1; so their output is
// rounded unless their input came, through pools and Flattens only,
// from a ReLU.
func forwardQ15(net *nn.Network, x *tensor.Tensor) *tensor.Tensor {
	fixed.FakeQuantize(x.Data)
	nonNeg := false // x holds no negative value
	for _, l := range net.Layers {
		x = l.Forward(x)
		switch l.(type) {
		case *nn.ReLU:
			nonNeg = true
		case *nn.MaxPool2D, *nn.Flatten:
		default:
			nonNeg = false
		}
		if !nonNeg {
			fixed.FakeQuantize(x.Data)
		}
	}
	return x
}

// PredictQ15 returns the argmax class under deployment numerics.
func PredictQ15(net *nn.Network, in *tensor.Tensor) int {
	return argmax(ForwardQ15(net, in).Data)
}

// PredictorQ15 is the nn.Predictor of deployment numerics: its predict
// function is PredictQ15 on net, rounding each input in one scratch
// copy instead of a new one per call.
func PredictorQ15(net *nn.Network) func(*tensor.Tensor) int {
	var x *tensor.Tensor
	return func(in *tensor.Tensor) int {
		if x == nil || !slices.Equal(x.Shape, in.Shape) {
			x = tensor.New(in.Shape...)
		}
		copy(x.Data, in.Data)
		return argmax(forwardQ15(net, x).Data)
	}
}

// argmax returns the index of the first largest logit.
func argmax(logits []float32) int {
	best, bestIdx := logits[0], 0
	for i, v := range logits[1:] {
		if v > best {
			best, bestIdx = v, i+1
		}
	}
	return bestIdx
}

// AccuracyQ15 evaluates top-1 accuracy under deployment numerics, spread
// over GOMAXPROCS goroutines; call on a QuantizeWeights clone to measure
// the deployed model's accuracy.
func AccuracyQ15(net *nn.Network, samples []nn.Sample) float64 {
	return nn.Evaluate(net, samples, runtime.GOMAXPROCS(0), PredictorQ15)
}
