package nn

import (
	"fmt"
	"math"
	"runtime"

	"iprune/internal/tensor"
)

// ---------------------------------------------------------------------------
// AvgPool2D

// AvgPool2D is an average pooling layer over CHW inputs (rectangular
// kernel and stride, like MaxPool2D).
type AvgPool2D struct {
	LayerName      string
	C, InH, InW    int
	KH, KW, SH, SW int
	OutH, OutW     int
	out, gradIn    *tensor.Tensor
}

// NewAvgPool2D constructs a square average pooling layer.
func NewAvgPool2D(name string, c, inH, inW, k, stride int) *AvgPool2D {
	return NewAvgPool2DRect(name, c, inH, inW, k, k, stride, stride)
}

// NewAvgPool2DRect constructs an average pooling layer with independent
// kernel and stride per axis.
func NewAvgPool2DRect(name string, c, inH, inW, kh, kw, sh, sw int) *AvgPool2D {
	l := &AvgPool2D{LayerName: name, C: c, InH: inH, InW: inW, KH: kh, KW: kw, SH: sh, SW: sw}
	l.OutH = (inH-kh)/sh + 1
	l.OutW = (inW-kw)/sw + 1
	if l.OutH <= 0 || l.OutW <= 0 {
		panic(fmt.Sprintf("nn: %s: pool output empty", name))
	}
	return l
}

// Name implements Layer.
func (l *AvgPool2D) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *AvgPool2D) Kind() Kind { return KindPool }

// Params implements Layer.
func (l *AvgPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (l *AvgPool2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := reuse(&l.out, l.C, l.OutH, l.OutW)
	inv := 1 / float32(l.KH*l.KW)
	oi := 0
	for c := 0; c < l.C; c++ {
		plane := in.Data[c*l.InH*l.InW:]
		for oh := 0; oh < l.OutH; oh++ {
			for ow := 0; ow < l.OutW; ow++ {
				var s float32
				for kh := 0; kh < l.KH; kh++ {
					base := (oh*l.SH + kh) * l.InW
					for kw := 0; kw < l.KW; kw++ {
						s += plane[base+ow*l.SW+kw]
					}
				}
				out.Data[oi] = s * inv
				oi++
			}
		}
	}
	return out
}

// Backward implements Layer.
func (l *AvgPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := reuse(&l.gradIn, l.C, l.InH, l.InW)
	clear(gradIn.Data)
	inv := 1 / float32(l.KH*l.KW)
	oi := 0
	for c := 0; c < l.C; c++ {
		plane := gradIn.Data[c*l.InH*l.InW:]
		for oh := 0; oh < l.OutH; oh++ {
			for ow := 0; ow < l.OutW; ow++ {
				g := float32(gradOut.Data[oi] * inv)
				oi++
				for kh := 0; kh < l.KH; kh++ {
					base := (oh*l.SH + kh) * l.InW
					for kw := 0; kw < l.KW; kw++ {
						plane[base+ow*l.SW+kw] += g
					}
				}
			}
		}
	}
	return gradIn
}

// Clone implements Layer.
func (l *AvgPool2D) Clone() Layer {
	c := *l
	c.out, c.gradIn = nil, nil
	return &c
}

// ---------------------------------------------------------------------------
// Adam

// Adam is the Adam optimizer (Kingma & Ba), an alternative to SGD for
// fine-tuning experiments. Like SGD.Step it re-applies pruning masks
// after every update.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m map[*Param][]float32
	v map[*Param][]float32
}

// NewAdam constructs the optimizer with the usual defaults
// (β₁=0.9, β₂=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		m: map[*Param][]float32{}, v: map[*Param][]float32{},
	}
}

// Step applies one Adam update using gradients accumulated over
// batchSize samples, then re-applies pruning masks.
func (a *Adam) Step(n *Network, batchSize int) {
	if batchSize <= 0 {
		panic(fmt.Sprintf("nn: bad batch size %d", batchSize))
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	scale := 1 / float32(batchSize)
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			m := a.m[p]
			v := a.v[p]
			if m == nil {
				m = make([]float32, len(p.Data))
				v = make([]float32, len(p.Data))
				a.m[p] = m
				a.v[p] = v
			}
			for i := range p.Data {
				g := p.Grad[i] * scale
				m[i] = float32(float32(a.Beta1)*m[i]) + float32(float32(1-a.Beta1)*g)
				v[i] = float32(float32(a.Beta2)*v[i]) + float32(float32(1-a.Beta2)*g*g)
				mh := float64(m[i]) / bc1
				vh := float64(v[i]) / bc2
				p.Data[i] -= float32(a.LR * mh / (math.Sqrt(vh) + a.Epsilon))
			}
		}
	}
	n.ApplyMasks()
}

// TrainEpochAdam runs one epoch of minibatch Adam over samples and
// returns the mean loss: TrainEpoch with Adam's step.
func TrainEpochAdam(n *Network, samples []Sample, opt *Adam, batch int, rng interface{ Perm(int) []int }) float64 {
	return epoch(n, samples, batch, rng, opt.Step, runtime.GOMAXPROCS(0))
}
