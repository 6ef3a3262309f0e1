package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iprune/internal/tensor"
)

// refReLU is ReLU.Forward's branching loop, kept as the reference the
// bit-select passes must match: the output and the mask that Backward
// read.
func refReLU(in []float32) (out []float32, mask []bool) {
	out, mask = make([]float32, len(in)), make([]bool, len(in))
	for i, v := range in {
		if v > 0 {
			out[i] = v
			mask[i] = true
		} else {
			mask[i] = false
		}
	}
	return out, mask
}

// refReLUBackward is ReLU.Backward's branching loop over refReLU's mask.
func refReLUBackward(gradOut []float32, mask []bool) []float32 {
	gradIn := make([]float32, len(gradOut))
	for i, g := range gradOut {
		if mask[i] {
			gradIn[i] = g
		}
	}
	return gradIn
}

// refMaxPool2D is MaxPool2D.Forward's window loop, kept as the
// reference: the output and the argmax of every window.
func refMaxPool2D(l *MaxPool2D, in []float32) ([]float32, []int) {
	out := make([]float32, l.C*l.OutH*l.OutW)
	argmax := make([]int, len(out))
	oi := 0
	for c := 0; c < l.C; c++ {
		plane := in[c*l.InH*l.InW:]
		for oh := 0; oh < l.OutH; oh++ {
			for ow := 0; ow < l.OutW; ow++ {
				best := float32(0)
				bestIdx := -1
				for kh := 0; kh < l.KH; kh++ {
					ih := oh*l.SH + kh
					for kw := 0; kw < l.KW; kw++ {
						iw := ow*l.SW + kw
						idx := ih*l.InW + iw
						v := plane[idx]
						if bestIdx < 0 || v > best {
							best, bestIdx = v, idx
						}
					}
				}
				out[oi] = best
				argmax[oi] = c*l.InH*l.InW + bestIdx
				oi++
			}
		}
	}
	return out, argmax
}

// specials are the float32 values whose bits the elementwise layers
// must keep: signed zeros and infinities, NaNs of both signs and other
// payloads, subnormals, and the normal extremes.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7FC00000), math.Float32frombits(0xFFC00000),
	math.Float32frombits(0x7F800001), math.Float32frombits(0xFFBFFFFF),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.Float32frombits(0x007FFFFF), math.Float32frombits(0x807FFFFF),
	math.Float32frombits(0x00800000), math.Float32frombits(0x80800000),
	math.MaxFloat32, -math.MaxFloat32, 1, -1, 0.5, -0.5,
}

// mixed returns n values drawn from specials, a few small integers (so
// that ties occur) and random bit patterns.
func mixed(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		switch rng.Intn(4) {
		case 0:
			s[i] = specials[rng.Intn(len(specials))]
		case 1:
			s[i] = float32(rng.Intn(5) - 2)
		case 2:
			s[i] = math.Float32frombits(rng.Uint32())
		default:
			s[i] = rng.Float32()*2 - 1
		}
	}
	return s
}

// sameFloatBits reports the first index where got and want differ in
// any bit, or -1.
func sameFloatBits(got, want []float32) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestReLUMatchesReference runs every special value, every bit pattern
// near the masks' bounds and random values through ReLU twice (the
// second pass reuses the buffers) and requires the output and the input
// gradient to keep refReLU's bits: NaN, -0 and negative values give +0,
// +Inf passes, and a gradient passes with its NaN payload intact.
func TestReLUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := append([]float32(nil), specials...)
	for _, b := range []uint32{0, 1, 2, 0x7F7FFFFF, 0x7F800000, 0x7F800001, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFF800000, 0xFFFFFFFF} {
		in = append(in, math.Float32frombits(b))
	}
	l := NewReLU("relu")
	for pass := 0; pass < 2; pass++ {
		in = append(in, mixed(rng, 200)...)
		gradOut := mixed(rng, len(in))
		wantOut, mask := refReLU(in)
		out := l.Forward(&tensor.Tensor{Shape: []int{len(in)}, Data: in})
		if i := sameFloatBits(out.Data, wantOut); i >= 0 {
			t.Fatalf("pass %d: Forward(%g [%#08x]) = %#08x, want %#08x", pass, in[i], math.Float32bits(in[i]),
				math.Float32bits(out.Data[i]), math.Float32bits(wantOut[i]))
		}
		gradIn := l.Backward(&tensor.Tensor{Shape: []int{len(in)}, Data: gradOut})
		if i := sameFloatBits(gradIn.Data, refReLUBackward(gradOut, mask)); i >= 0 {
			t.Fatalf("pass %d: Backward at input %g: %#08x, want %#08x", pass, in[i],
				math.Float32bits(gradIn.Data[i]), math.Float32bits(refReLUBackward(gradOut, mask)[i]))
		}
	}
}

// poolGeom is one generated pooling geometry.
type poolGeom struct{ c, inH, inW, kh, kw, sh, sw int }

// poolGeoms returns n geometries with kernels and strides of 1 to 3 on
// each axis, so windows overlap (stride < kernel), tile and skip inputs.
func poolGeoms(rng *rand.Rand, n int) []poolGeom {
	gs := make([]poolGeom, n)
	for i := range gs {
		g := poolGeom{c: 1 + rng.Intn(3), kh: 1 + rng.Intn(3), kw: 1 + rng.Intn(3), sh: 1 + rng.Intn(3), sw: 1 + rng.Intn(3)}
		g.inH, g.inW = g.kh+rng.Intn(6), g.kw+rng.Intn(9)
		gs[i] = g
	}
	return gs
}

// geom formats l's geometry for failure messages.
func geom(l *MaxPool2D) string {
	return fmt.Sprintf("C%d %dx%d kernel %dx%d stride %dx%d", l.C, l.InH, l.InW, l.KH, l.KW, l.SH, l.SW)
}

// checkPool runs in through l and requires the output, the argmax and
// the input gradient of gradOut to match refMaxPool2D's.
func checkPool(t *testing.T, l *MaxPool2D, in, gradOut []float32) {
	t.Helper()
	wantOut, wantArg := refMaxPool2D(l, in)
	out := l.Forward(&tensor.Tensor{Shape: []int{l.C, l.InH, l.InW}, Data: in})
	if i := sameFloatBits(out.Data, wantOut); i >= 0 {
		t.Fatalf("%s: output %d = %#08x, want %#08x (input %v)", geom(l), i, math.Float32bits(out.Data[i]), math.Float32bits(wantOut[i]), in)
	}
	for i, a := range wantArg {
		if int(l.argmax[i]) != a {
			t.Fatalf("%s: argmax %d = %d, want %d (input %v)", geom(l), i, l.argmax[i], a, in)
		}
	}
	wantGrad := make([]float32, len(in))
	for i, g := range gradOut {
		wantGrad[wantArg[i]] += g
	}
	gradIn := l.Backward(&tensor.Tensor{Shape: out.Shape, Data: gradOut})
	if i := sameFloatBits(gradIn.Data, wantGrad); i >= 0 && !(math.IsNaN(float64(gradIn.Data[i])) && math.IsNaN(float64(wantGrad[i]))) {
		t.Fatalf("%s: input gradient %d = %g, want %g", geom(l), i, gradIn.Data[i], wantGrad[i])
	}
}

// TestMaxPool2DMatchesReference compares generated geometries, with
// NaNs, signed zeros, infinities and ties in the data, against the
// window loop, two inputs per layer so the second reuses its buffers.
func TestMaxPool2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, g := range poolGeoms(rng, 500) {
		l := NewMaxPool2DRect("pool", g.c, g.inH, g.inW, g.kh, g.kw, g.sh, g.sw)
		for range 2 {
			checkPool(t, l, mixed(rng, g.c*g.inH*g.inW), mixed(rng, g.c*l.OutH*l.OutW))
		}
	}
}

// TestMaxPool2DOrder pins the window order on hand-made windows: the
// first of equal maxima wins (+0 before -0 keeps +0), a leading NaN
// wins, a later NaN never does, and the order is row-major within the
// window.
func TestMaxPool2DOrder(t *testing.T) {
	nan, negZero := float32(math.NaN()), float32(math.Copysign(0, -1))
	for _, c := range []struct {
		name    string
		in      []float32 // one 2×2 window
		wantIdx int
	}{
		{"ties keep the first", []float32{1, 3, 3, 3}, 1},
		{"+0 before -0", []float32{0, negZero, negZero, 0}, 0},
		{"-0 before +0", []float32{negZero, 0, 0, negZero}, 0},
		{"leading NaN", []float32{nan, 5, 6, 7}, 0},
		{"later NaN", []float32{1, nan, 2, nan}, 2},
		{"row-major", []float32{-1, -3, -1, -2}, 0},
		{"second row", []float32{-1, -3, 4, 4}, 2},
		{"-Inf only", []float32{float32(math.Inf(-1)), float32(math.Inf(-1)), float32(math.Inf(-1)), float32(math.Inf(-1))}, 0},
	} {
		l := NewMaxPool2D("pool", 1, 2, 2, 2, 2)
		out := l.Forward(&tensor.Tensor{Shape: []int{1, 2, 2}, Data: c.in})
		if int(l.argmax[0]) != c.wantIdx || math.Float32bits(out.Data[0]) != math.Float32bits(c.in[c.wantIdx]) {
			t.Errorf("%s: max %g at %d, want %g at %d", c.name, out.Data[0], l.argmax[0], c.in[c.wantIdx], c.wantIdx)
		}
	}
}

// FuzzMaxPool2D checks the pool against refMaxPool2D on fuzzed
// geometries and input bits; plain go test runs the seed corpus.
func FuzzMaxPool2D(f *testing.F) {
	f.Add(uint8(0x11), uint8(0x12), uint8(0x22), []byte{0, 0, 192, 127, 0, 0, 128, 63, 0, 0, 0, 128, 0, 0, 0, 0})
	f.Add(uint8(0x23), uint8(0x33), uint8(0x21), []byte{0, 0, 128, 255, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 128, 127, 1, 0, 192, 255})
	f.Add(uint8(0x07), uint8(0x21), uint8(0x12), []byte{0, 0, 128, 63, 0, 0, 128, 63, 0, 0, 0, 64})
	f.Fuzz(func(t *testing.T, size, kernel, stride uint8, data []byte) {
		words := len(data) / 4
		if words == 0 {
			return
		}
		kh, kw := int(kernel&0xF)%4+1, int(kernel>>4)%4+1
		sh, sw := int(stride&0xF)%4+1, int(stride>>4)%4+1
		c, inH, inW := int(size>>6)+1, kh+int(size&7), kw+int(size>>3&7)
		l := NewMaxPool2DRect("pool", c, inH, inW, kh, kw, sh, sw)
		next := 0
		fill := func(n int) []float32 {
			s := make([]float32, n)
			for i := range s {
				s[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*(next%words):]))
				next++
			}
			return s
		}
		checkPool(t, l, fill(c*inH*inW), fill(c*l.OutH*l.OutW))
	})
}

// TestFCInputGradientMatchesGemmTA pins FC.Backward's input gradient
// loop to tensor.GemmTA, the product it replaced, on weights with zeros
// and -0 and gradients with ±Inf, NaN and signed zeros: a zero weight
// must skip its 0·Inf and 0·NaN, as GemmTA's zero skip does. Two NaNs
// match whatever their bits.
func TestFCInputGradientMatchesGemmTA(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	negZero := float32(math.Copysign(0, -1))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for trial := 0; trial < 200; trial++ {
		in, out := 1+rng.Intn(40), 1+rng.Intn(8)
		l := NewFC("fc", in, out, rng)
		for i := range l.W.Data {
			switch rng.Intn(4) {
			case 0:
				l.W.Data[i] = 0
			case 1:
				l.W.Data[i] = negZero
			}
		}
		x := randTensor(rng, in)
		gradOut := randTensor(rng, out)
		for i := range gradOut.Data {
			if rng.Intn(6) == 0 {
				gradOut.Data[i] = []float32{inf, -inf, nan, 0, negZero}[rng.Intn(5)]
			}
		}
		l.Forward(x)
		got := l.Backward(gradOut).Data
		want := make([]float32, in)
		tensor.GemmTA(l.W.Data, gradOut.Data, want, in, out, 1, false)
		for i := range want {
			g, w := got[i], want[i]
			if math.Float32bits(g) != math.Float32bits(w) && !(math.IsNaN(float64(g)) && math.IsNaN(float64(w))) {
				t.Fatalf("trial %d: dIn[%d] = %g (%#08x), GemmTA %g (%#08x)", trial, i, g, math.Float32bits(g), w, math.Float32bits(w))
			}
		}
	}
}
