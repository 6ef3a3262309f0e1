package nn

import (
	"fmt"

	"iprune/internal/tensor"
)

// Container is implemented by layers that contain sublayers (multi-path
// modules). Network traversals — prunable enumeration, mask application,
// layer counting, engine lowering — recurse through it.
type Container interface {
	Layer
	// Sublayers returns the contained layers in a fixed order.
	Sublayers() []Layer
}

// Branch runs several layer paths on the same input and concatenates
// their CHW outputs along the channel axis — the "multiple path networks"
// HAWAII⁺ supports (Section III-D), e.g. SqueezeNet fire modules whose
// 1×1 and 3×3 expands join.
//
// Every path must produce the same spatial size; the branch output has
// the summed channel count.
type Branch struct {
	LayerName string
	Paths     [][]Layer

	inShape     []int
	outs        []*tensor.Tensor // each path's output in the last Forward
	grads       []tensor.Tensor  // views of each path's slice of dL/dOut
	out, gradIn *tensor.Tensor
}

// NewBranch constructs a multi-path module.
func NewBranch(name string, paths ...[]Layer) *Branch {
	if len(paths) < 2 {
		panic(fmt.Sprintf("nn: branch %s needs at least two paths", name))
	}
	return &Branch{LayerName: name, Paths: paths}
}

// Name implements Layer.
func (b *Branch) Name() string { return b.LayerName }

// Kind implements Layer.
func (b *Branch) Kind() Kind { return KindFlatten } // structural; not counted in Table II

// Params implements Layer.
func (b *Branch) Params() []*Param {
	var out []*Param
	for _, path := range b.Paths {
		for _, l := range path {
			out = append(out, l.Params()...)
		}
	}
	return out
}

// Sublayers implements Container.
func (b *Branch) Sublayers() []Layer {
	var out []Layer
	for _, path := range b.Paths {
		out = append(out, path...)
	}
	return out
}

// Forward implements Layer.
func (b *Branch) Forward(in *tensor.Tensor) *tensor.Tensor {
	if len(in.Shape) != 3 {
		panic(fmt.Sprintf("nn: branch %s wants CHW input, got shape %v", b.LayerName, in.Shape))
	}
	b.inShape = append(b.inShape[:0], in.Shape...)
	b.outs = b.outs[:0]
	totalC := 0
	h, w := -1, -1
	for pi, path := range b.Paths {
		x := in
		for _, l := range path {
			x = l.Forward(x)
		}
		if len(x.Shape) != 3 {
			panic(fmt.Sprintf("nn: branch %s path %d output shape %v is not CHW", b.LayerName, pi, x.Shape))
		}
		if h < 0 {
			h, w = x.Shape[1], x.Shape[2]
		} else if x.Shape[1] != h || x.Shape[2] != w {
			panic(fmt.Sprintf("nn: branch %s path %d spatial %dx%d != %dx%d",
				b.LayerName, pi, x.Shape[1], x.Shape[2], h, w))
		}
		totalC += x.Shape[0]
		b.outs = append(b.outs, x)
	}
	out := reuse(&b.out, totalC, h, w)
	off := 0
	for _, x := range b.outs {
		copy(out.Data[off:], x.Data)
		off += x.Len()
	}
	return out
}

// Backward implements Layer.
func (b *Branch) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := reuse(&b.gradIn, b.inShape...)
	clear(gradIn.Data)
	if len(b.grads) != len(b.Paths) {
		b.grads = make([]tensor.Tensor, len(b.Paths))
	}
	off := 0
	for pi, path := range b.Paths {
		// The path's output belongs to its last layer and is valid only
		// until that layer's Backward below.
		g := &b.grads[pi]
		g.Shape = append(g.Shape[:0], b.outs[pi].Shape...)
		g.Data = gradOut.Data[off : off+b.outs[pi].Len()]
		off += len(g.Data)
		for i := len(path) - 1; i >= 0; i-- {
			g = path[i].Backward(g)
		}
		for i, v := range g.Data {
			gradIn.Data[i] += v
		}
	}
	return gradIn
}

// Clone implements Layer.
func (b *Branch) Clone() Layer {
	c := &Branch{LayerName: b.LayerName}
	for _, path := range b.Paths {
		cp := make([]Layer, len(path))
		for i, l := range path {
			cp[i] = l.Clone()
		}
		c.Paths = append(c.Paths, cp)
	}
	return c
}
