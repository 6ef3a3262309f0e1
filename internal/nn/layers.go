package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"iprune/internal/tensor"
)

// Kind distinguishes layer categories for reporting (the paper's Table II
// counts CONV / POOL / FC layers).
type Kind int

// Layer kinds.
const (
	KindConv Kind = iota
	KindFC
	KindPool
	KindGAP // global average pooling: a reduction, not counted as POOL in Table II
	KindAct
	KindFlatten
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindConv:
		return "CONV"
	case KindFC:
		return "FC"
	case KindPool:
		return "POOL"
	case KindGAP:
		return "GAP"
	case KindAct:
		return "ACT"
	case KindFlatten:
		return "FLAT"
	default:
		return "?"
	}
}

// Layer is a single differentiable network stage operating on one sample.
//
// A layer owns the tensors it returns. Forward and Backward reuse one
// output and one input-gradient tensor per layer, so a warmed pass
// allocates nothing. A returned tensor therefore stays valid only until
// the layer's next Forward or Backward call; a caller that keeps one
// longer copies it.
// One layer serves one goroutine at a time: concurrent passes run on
// separate clones.
type Layer interface {
	Name() string
	Kind() Kind
	// Forward consumes a CHW (or flat) input and returns the output,
	// valid until the layer's next call. Implementations may retain
	// the input for backprop, so it must stay unchanged until the
	// matching Backward.
	Forward(in *tensor.Tensor) *tensor.Tensor
	// Backward consumes dL/dOut and returns dL/dIn, valid until the
	// layer's next call, adding each parameter's gradient for the
	// sample to Param.Grad in one addition per element.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns learnable parameters (possibly empty).
	Params() []*Param
	// Clone returns a deep copy with independent parameters and masks
	// that shares no buffer with the original.
	Clone() Layer
}

// reuse returns the layer-owned tensor *t if it has the given shape,
// and otherwise stores a new zeroed tensor of that shape in *t and
// returns it. A reused tensor keeps the values of its last use: a layer
// that writes every element stores into it directly, and one that adds
// into it clears it first.
func reuse(t **tensor.Tensor, shape ...int) *tensor.Tensor {
	if *t == nil || !slices.Equal((*t).Shape, shape) {
		// New formats its shape into a panic message, which would move
		// every caller's shape argument to the heap; pass it a copy.
		*t = tensor.New(slices.Clone(shape)...)
	}
	return *t
}

// Prunable is implemented by layers whose weights form a GEMM matrix that
// the pruning framework can mask at accelerator-block granularity.
type Prunable interface {
	Layer
	// WeightMatrix exposes the weights as a rows×cols row-major matrix.
	WeightMatrix() (w []float32, rows, cols int)
	// Mask returns the block mask, or nil before InitBlocks.
	Mask() *BlockMask
	// InitBlocks installs a fresh all-keep mask with BM×BK blocks.
	InitBlocks(bm, bk int)
	// ApplyMask zeroes weights in pruned blocks (weights and mask are
	// kept consistent after every optimizer step).
	ApplyMask()
}

// ---------------------------------------------------------------------------
// Conv2D

// Conv2D is a 2-D convolution lowered to GEMM (weights are OutC×K with
// K = InC·KH·KW), matching the device-side lowering so that one block
// geometry describes both training masks and accelerator operations.
type Conv2D struct {
	LayerName string
	Geom      tensor.ConvGeom
	W         *Param // OutC × K
	B         *Param // OutC
	mask      *BlockMask

	col         []float32 // scratch: K×N patch matrix of the last input
	dcol        []float32
	out, gradIn *tensor.Tensor
}

// NewConv2D constructs and He-initializes a convolution layer.
func NewConv2D(name string, g tensor.ConvGeom, rng *rand.Rand) *Conv2D {
	if err := g.Derive(); err != nil {
		panic(fmt.Sprintf("nn: %s: %v", name, err))
	}
	l := &Conv2D{LayerName: name, Geom: g}
	l.W = NewParam(g.OutC * g.K())
	l.B = NewParam(g.OutC)
	l.W.HeInit(rng, g.K())
	return l
}

// Name implements Layer.
func (l *Conv2D) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *Conv2D) Kind() Kind { return KindConv }

// Params implements Layer.
func (l *Conv2D) Params() []*Param { return []*Param{l.W, l.B} }

// WeightMatrix implements Prunable.
func (l *Conv2D) WeightMatrix() ([]float32, int, int) {
	return l.W.Data, l.Geom.OutC, l.Geom.K()
}

// Mask implements Prunable.
func (l *Conv2D) Mask() *BlockMask { return l.mask }

// InitBlocks implements Prunable.
func (l *Conv2D) InitBlocks(bm, bk int) {
	l.mask = NewBlockMask(l.Geom.OutC, l.Geom.K(), bm, bk)
}

// ApplyMask implements Prunable.
func (l *Conv2D) ApplyMask() {
	if l.mask != nil {
		l.mask.Apply(l.W.Data)
	}
}

// Forward implements Layer.
func (l *Conv2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	g := &l.Geom
	kn := g.K() * g.N()
	if cap(l.col) < kn {
		l.col = make([]float32, kn)
	}
	l.col = l.col[:kn]
	tensor.Im2col(g, in.Data, l.col)
	out := reuse(&l.out, g.OutC, g.OutH, g.OutW)
	tensor.Gemm(l.W.Data, l.col, out.Data, g.OutC, g.K(), g.N(), false) // clears out first
	n := g.N()
	for oc := 0; oc < g.OutC; oc++ {
		b := l.B.Data[oc]
		row := out.Data[oc*n : oc*n+n]
		for i := range row {
			row[i] += b
		}
	}
	return out
}

// Backward implements Layer.
func (l *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	l.backwardParams(gradOut)
	g := &l.Geom
	n := g.N()
	// dcol = Wᵀ · dY  (K×OutC · OutC×N) — GemmTA with A=W (OutC×K), B=dY.
	kn := g.K() * n
	if cap(l.dcol) < kn {
		l.dcol = make([]float32, kn)
	}
	l.dcol = l.dcol[:kn]
	tensor.GemmTA(l.W.Data, gradOut.Data, l.dcol, g.K(), g.OutC, n, false)
	gradIn := reuse(&l.gradIn, g.InC, g.InH, g.InW)
	tensor.Col2im(g, l.dcol, gradIn.Data) // clears gradIn first
	return gradIn
}

// backwardParams implements paramBackwarder: Backward's dB and dW.
func (l *Conv2D) backwardParams(gradOut *tensor.Tensor) {
	g := &l.Geom
	n := g.N()
	// dB
	for oc := 0; oc < g.OutC; oc++ {
		row := gradOut.Data[oc*n : oc*n+n]
		var s float32
		for _, v := range row {
			s += v
		}
		l.B.Grad[oc] += s
	}
	// dW = dY · colᵀ  (OutC×N · N×K) — GemmTB with A=dY (OutC×N), B=col (K×N).
	tensor.GemmTB(gradOut.Data, l.col, l.W.Grad, g.OutC, n, g.K(), true)
}

// Clone implements Layer.
func (l *Conv2D) Clone() Layer {
	c := &Conv2D{LayerName: l.LayerName, Geom: l.Geom, W: l.W.Clone(), B: l.B.Clone()}
	if l.mask != nil {
		c.mask = l.mask.Clone()
	}
	return c
}

// ---------------------------------------------------------------------------
// FC

// FC is a fully connected layer (weights Out×In).
type FC struct {
	LayerName string
	In, Out   int
	W         *Param
	B         *Param
	mask      *BlockMask

	in, out, gradIn *tensor.Tensor
}

// NewFC constructs and He-initializes a fully connected layer.
func NewFC(name string, in, out int, rng *rand.Rand) *FC {
	l := &FC{LayerName: name, In: in, Out: out}
	l.W = NewParam(out * in)
	l.B = NewParam(out)
	l.W.HeInit(rng, in)
	return l
}

// Name implements Layer.
func (l *FC) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *FC) Kind() Kind { return KindFC }

// Params implements Layer.
func (l *FC) Params() []*Param { return []*Param{l.W, l.B} }

// WeightMatrix implements Prunable.
func (l *FC) WeightMatrix() ([]float32, int, int) { return l.W.Data, l.Out, l.In }

// Mask implements Prunable.
func (l *FC) Mask() *BlockMask { return l.mask }

// InitBlocks implements Prunable.
func (l *FC) InitBlocks(bm, bk int) { l.mask = NewBlockMask(l.Out, l.In, bm, bk) }

// ApplyMask implements Prunable.
func (l *FC) ApplyMask() {
	if l.mask != nil {
		l.mask.Apply(l.W.Data)
	}
}

// Forward implements Layer.
func (l *FC) Forward(in *tensor.Tensor) *tensor.Tensor {
	if in.Len() != l.In {
		panic(fmt.Sprintf("nn: %s: input %d, want %d", l.LayerName, in.Len(), l.In))
	}
	out := reuse(&l.out, l.Out)
	tensor.Gemm(l.W.Data, in.Data, out.Data, l.Out, l.In, 1, false) // clears out first
	for i := range out.Data {
		out.Data[i] += l.B.Data[i]
	}
	l.in = in
	return out
}

// Backward implements Layer.
func (l *FC) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	l.backwardParams(gradOut)
	// dIn = Wᵀ · dY, one pass over W's rows: each dIn[i] adds W[o][i]·dY[o]
	// for o ascending, skipping zero weights, in GemmTA's order and with
	// its bits, without a row-routine call per input.
	gradIn := reuse(&l.gradIn, l.In)
	dx := gradIn.Data
	clear(dx)
	for o, g := range gradOut.Data {
		row := l.W.Data[o*l.In:][:len(dx)]
		for i, w := range row {
			if w != 0 {
				dx[i] += float32(w * g)
			}
		}
	}
	return gradIn
}

// backwardParams implements paramBackwarder: Backward's dB and dW.
func (l *FC) backwardParams(gradOut *tensor.Tensor) {
	for i, g := range gradOut.Data {
		l.B.Grad[i] += g
	}
	// dW[o][i] += gOut[o] * in[i]. The product is rounded on its own so
	// that it is never fused into the addition: the gradient takes one
	// rounded per-sample term, whatever the target's FMA support.
	for o, g := range gradOut.Data {
		if g == 0 {
			continue
		}
		row := l.W.Grad[o*l.In : o*l.In+l.In]
		for i, x := range l.in.Data {
			row[i] += float32(g * x)
		}
	}
}

// Clone implements Layer.
func (l *FC) Clone() Layer {
	c := &FC{LayerName: l.LayerName, In: l.In, Out: l.Out, W: l.W.Clone(), B: l.B.Clone()}
	if l.mask != nil {
		c.mask = l.mask.Clone()
	}
	return c
}

// ---------------------------------------------------------------------------
// MaxPool2D

// MaxPool2D is a max pooling layer over CHW inputs.
type MaxPool2D struct {
	LayerName      string
	C, InH, InW    int
	KH, KW, SH, SW int
	OutH, OutW     int
	argmax         []int32
	out, gradIn    *tensor.Tensor
}

// NewMaxPool2D constructs a square max pooling layer.
func NewMaxPool2D(name string, c, inH, inW, k, stride int) *MaxPool2D {
	return NewMaxPool2DRect(name, c, inH, inW, k, k, stride, stride)
}

// NewMaxPool2DRect constructs a max pooling layer with independent kernel
// and stride per axis (1-D signals pool along width only).
func NewMaxPool2DRect(name string, c, inH, inW, kh, kw, sh, sw int) *MaxPool2D {
	l := &MaxPool2D{LayerName: name, C: c, InH: inH, InW: inW, KH: kh, KW: kw, SH: sh, SW: sw}
	l.OutH = (inH-kh)/sh + 1
	l.OutW = (inW-kw)/sw + 1
	if l.OutH <= 0 || l.OutW <= 0 {
		panic(fmt.Sprintf("nn: %s: pool output empty", name))
	}
	if c*inH*inW > math.MaxInt32 {
		panic(fmt.Sprintf("nn: %s: input of %d values overflows the int32 argmax", name, c*inH*inW))
	}
	return l
}

// Name implements Layer.
func (l *MaxPool2D) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *MaxPool2D) Kind() Kind { return KindPool }

// Params implements Layer.
func (l *MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer. Each output is the first largest value of
// its window in row-major window order, compared with >: a NaN that
// comes first wins, and a later NaN never does.
//
// The windows of a HAR pool hold two values, so a branch per comparison
// would mispredict about half the time. Instead each output row takes
// one pass per window offset: the first pass copies the offset's inputs
// and their indices, and every later one selects, by a mask made from
// the comparison, the inputs greater than the row's maxima. Every output
// sees the comparisons of a window loop, in its order.
func (l *MaxPool2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := reuse(&l.out, l.C, l.OutH, l.OutW)
	if cap(l.argmax) < out.Len() {
		l.argmax = make([]int32, out.Len())
	}
	l.argmax = l.argmax[:out.Len()]
	for c := 0; c < l.C; c++ {
		for oh := 0; oh < l.OutH; oh++ {
			o := (c*l.OutH + oh) * l.OutW
			row, arg := out.Data[o:o+l.OutW], l.argmax[o:o+l.OutW]
			top := (c*l.InH + oh*l.SH) * l.InW // the row's first window input
			poolFirst(row, arg, in.Data, top, l.SW)
			for kh := 0; kh < l.KH; kh++ {
				for kw := 0; kw < l.KW; kw++ {
					if kh+kw > 0 {
						poolMax(row, arg, in.Data, top+kh*l.InW+kw, l.SW)
					}
				}
			}
		}
	}
	return out
}

// poolFirst stores in[idx] into row[j] and idx into arg[j], for idx =
// start + j·stride: a pool row's first window offset.
func poolFirst(row []float32, arg []int32, in []float32, start, stride int) {
	arg = arg[:len(row)]
	idx := start
	for j := range row {
		row[j], arg[j] = in[idx], int32(idx)
		idx += stride
	}
}

// poolMax replaces row[j] by in[idx] and arg[j] by idx where in[idx] >
// row[j], for idx = start + j·stride: one later window offset of a pool
// row. The replacement is a bit select under a mask of the comparison,
// which compiles to SETcc rather than a jump.
func poolMax(row []float32, arg []int32, in []float32, start, stride int) {
	arg = arg[:len(row)]
	idx := start
	for j, best := range row {
		v := in[idx]
		m := -b2u(v > best)
		b := math.Float32bits(best)
		row[j] = math.Float32frombits(b ^ (b^math.Float32bits(v))&m)
		arg[j] ^= (arg[j] ^ int32(idx)) & int32(m)
		idx += stride
	}
}

// b2u is 1 for true and 0 for false; the compiler turns it into SETcc.
func b2u(b bool) uint32 {
	var u uint32
	if b {
		u = 1
	}
	return u
}

// Backward implements Layer.
func (l *MaxPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := reuse(&l.gradIn, l.C, l.InH, l.InW)
	clear(gradIn.Data)
	for i, g := range gradOut.Data {
		gradIn.Data[l.argmax[i]] += g
	}
	return gradIn
}

// Clone implements Layer.
func (l *MaxPool2D) Clone() Layer {
	c := *l
	c.argmax, c.out, c.gradIn = nil, nil, nil
	return &c
}

// ---------------------------------------------------------------------------
// GlobalAvgPool

// GlobalAvgPool averages each channel plane to a single value.
type GlobalAvgPool struct {
	LayerName   string
	C, H, W     int
	out, gradIn *tensor.Tensor
}

// NewGlobalAvgPool constructs a global average pooling layer.
func NewGlobalAvgPool(name string, c, h, w int) *GlobalAvgPool {
	return &GlobalAvgPool{LayerName: name, C: c, H: h, W: w}
}

// Name implements Layer.
func (l *GlobalAvgPool) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *GlobalAvgPool) Kind() Kind { return KindGAP }

// Params implements Layer.
func (l *GlobalAvgPool) Params() []*Param { return nil }

// Forward implements Layer.
func (l *GlobalAvgPool) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := reuse(&l.out, l.C)
	hw := l.H * l.W
	inv := 1 / float32(hw)
	for c := 0; c < l.C; c++ {
		var s float32
		for _, v := range in.Data[c*hw : c*hw+hw] {
			s += v
		}
		out.Data[c] = s * inv
	}
	return out
}

// Backward implements Layer.
func (l *GlobalAvgPool) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := reuse(&l.gradIn, l.C, l.H, l.W)
	hw := l.H * l.W
	inv := 1 / float32(hw)
	for c := 0; c < l.C; c++ {
		g := gradOut.Data[c] * inv
		row := gradIn.Data[c*hw : c*hw+hw]
		for i := range row {
			row[i] = g
		}
	}
	return gradIn
}

// Clone implements Layer.
func (l *GlobalAvgPool) Clone() Layer { return NewGlobalAvgPool(l.LayerName, l.C, l.H, l.W) }

// ---------------------------------------------------------------------------
// ReLU

// ReLU is the rectified linear activation. About half of the values it
// sees are positive, so a branch on each sign would mispredict about
// half the time: both passes select bits under a mask instead.
type ReLU struct {
	LayerName   string
	out, gradIn *tensor.Tensor
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{LayerName: name} }

// Name implements Layer.
func (l *ReLU) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *ReLU) Kind() Kind { return KindAct }

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// Forward implements Layer. It keeps the values v > 0, +Inf included,
// and stores +0 for NaN, ±0 and negative values.
func (l *ReLU) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := reuse(&l.out, in.Shape...)
	dst := out.Data[:len(in.Data)]
	for i, v := range in.Data {
		// v > 0 exactly when 1 <= bits <= 0x7F800000 (+Inf), that is when
		// bits-1 (wrapping at 0) is below 0x7F800000: the 64-bit
		// difference is negative, and its sign fills the mask.
		b := math.Float32bits(v)
		keep := uint32(int64(uint64(b-1)-0x7F800000) >> 63)
		dst[i] = math.Float32frombits(b & keep)
	}
	return out
}

// Backward implements Layer. It passes each gradient where the layer's
// last output is nonzero, which is where the input was > 0, and stores
// +0 elsewhere. It reads that output, so a caller must not change the
// output between Forward and Backward.
func (l *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := reuse(&l.gradIn, gradOut.Shape...)
	out := l.out.Data[:len(gradOut.Data)]
	dst := gradIn.Data[:len(gradOut.Data)]
	for i, g := range gradOut.Data {
		// The output's bits are 0 or positive: negated, they fill the
		// mask with their sign exactly when they are not 0.
		keep := uint32(-int64(math.Float32bits(out[i])) >> 63)
		dst[i] = math.Float32frombits(math.Float32bits(g) & keep)
	}
	return gradIn
}

// Clone implements Layer.
func (l *ReLU) Clone() Layer { return &ReLU{LayerName: l.LayerName} }

// ---------------------------------------------------------------------------
// Flatten

// Flatten reshapes a CHW tensor to a vector.
type Flatten struct {
	LayerName   string
	out, gradIn tensor.Tensor // views: Flatten reshapes, it never copies
}

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{LayerName: name} }

// Name implements Layer.
func (l *Flatten) Name() string { return l.LayerName }

// Kind implements Layer.
func (l *Flatten) Kind() Kind { return KindFlatten }

// Params implements Layer.
func (l *Flatten) Params() []*Param { return nil }

// Forward implements Layer.
func (l *Flatten) Forward(in *tensor.Tensor) *tensor.Tensor {
	l.gradIn.Shape = append(l.gradIn.Shape[:0], in.Shape...)
	l.out.Shape = append(l.out.Shape[:0], in.Len())
	l.out.Data = in.Data
	return &l.out
}

// Backward implements Layer.
func (l *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	l.gradIn.Data = gradOut.Data
	return &l.gradIn
}

// Clone implements Layer.
func (l *Flatten) Clone() Layer { return &Flatten{LayerName: l.LayerName} }
