package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Len() != 24 {
		t.Errorf("Len = %d, want 24", tt.Len())
	}
	if len(tt.Shape) != 3 || tt.Shape[0] != 2 || tt.Shape[1] != 3 || tt.Shape[2] != 4 {
		t.Errorf("Shape = %v", tt.Shape)
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero dim")
		}
	}()
	New(2, 0)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(2, 3)
	tt.Set(7.5, 1, 2)
	if tt.At(1, 2) != 7.5 {
		t.Errorf("At(1,2) = %v, want 7.5", tt.At(1, 2))
	}
	if tt.Data[1*3+2] != 7.5 {
		t.Error("row-major layout violated")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := New(4)
	a.Data[0] = 1
	b := a.Clone()
	b.Data[0] = 2
	if a.Data[0] != 1 {
		t.Error("clone shares storage with original")
	}
}

func TestFromDataValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched length")
		}
	}()
	FromData(make([]float32, 5), 2, 3)
}

// refGemm, refGemmTA and refGemmTB are the plain loops the blocked
// kernels replaced, kept verbatim as the bit-exact reference: the blocked
// kernels must perform the same float32 additions in the same order.
func refGemm(a, b, c []float32, m, k, n int, accumulate bool) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: gemm buffer too small")
	}
	if !accumulate {
		for i := range c[:m*n] {
			c[i] = 0
		}
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : p*n+n]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

func refGemmTA(a, b, c []float32, m, k, n int, accumulate bool) {
	if !accumulate {
		for i := range c[:m*n] {
			c[i] = 0
		}
	}
	for p := 0; p < k; p++ {
		arow := a[p*m : p*m+m]
		brow := b[p*n : p*n+n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			crow := c[i*n : i*n+n]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

func refGemmTB(a, b, c []float32, m, k, n int, accumulate bool) {
	if !accumulate {
		for i := range c[:m*n] {
			c[i] = 0
		}
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for j := 0; j < n; j++ {
			brow := b[j*k : j*k+k]
			var s float32
			for p := range arow {
				s += arow[p] * brow[p]
			}
			crow[j] += s
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

// gemmKernel pairs a kernel with its reference and the lengths of its
// A and B operands for an m×k by k×n product.
type gemmKernel struct {
	name     string
	got, ref func(a, b, c []float32, m, k, n int, accumulate bool)
	lens     func(m, k, n int) (la, lb int)
}

var gemmKernels = []gemmKernel{
	{"Gemm", Gemm, refGemm, func(m, k, n int) (int, int) { return m * k, k * n }},
	{"GemmTA", GemmTA, refGemmTA, func(m, k, n int) (int, int) { return k * m, k * n }},
	{"GemmTB", GemmTB, refGemmTB, func(m, k, n int) (int, int) { return m * k, n * k }},
}

// gemmFill returns n operand values of the given kind: "dense" in
// [-1, 1), "sparse" with three zeros in four, "signed" drawn from signed
// zeros, ±1, subnormals and large values, or "zero" (+0 and -0 only).
func gemmFill(rng *rand.Rand, kind string, n int) []float32 {
	s := make([]float32, n)
	negZero := float32(math.Copysign(0, -1))
	for i := range s {
		switch kind {
		case "dense":
			s[i] = rng.Float32()*2 - 1
		case "sparse":
			if rng.Intn(4) == 0 {
				s[i] = rng.Float32()*2 - 1
			}
		case "signed":
			s[i] = []float32{0, negZero, 1, -1, 1e-38, -3e-39, 6e4, rng.Float32() - 0.5}[rng.Intn(8)]
		case "zero":
			if rng.Intn(2) == 0 {
				s[i] = negZero
			}
		}
	}
	return s
}

// checkGemmBits runs kernel g and its reference on the same operands and
// initial C, and fails on the first element whose bits differ. Two NaNs
// match whatever their bits: Go does not define which NaN an operation
// on NaNs returns.
func checkGemmBits(t *testing.T, g gemmKernel, a, b, c0 []float32, m, k, n int, accumulate bool) {
	t.Helper()
	got := append([]float32(nil), c0...)
	want := append([]float32(nil), c0...)
	g.got(a, b, got, m, k, n, accumulate)
	g.ref(a, b, want, m, k, n, accumulate)
	for i := range want {
		gb, wb := math.Float32bits(got[i]), math.Float32bits(want[i])
		if gb != wb && !(got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("%s m=%d k=%d n=%d accumulate=%v: element %d = %v (%#08x), reference %v (%#08x)",
				g.name, m, k, n, accumulate, i, got[i], gb, want[i], wb)
		}
	}
}

// The MatchesNaive tests compare each kernel with its reference bit for
// bit over shapes that hit every code path: one output column (the
// scalar dot), k mod 4 (Gemm, GemmTA) and n mod 4 (GemmTB) of 0 to 3,
// the tails after the blocks of four, dense, zero-heavy and all-zero
// operands, signed zeros, and accumulation into a C holding signed
// zeros.
func TestGemmMatchesNaive(t *testing.T)   { checkKernelBitExact(t, gemmKernels[0], 1) }
func TestGemmTAMatchesNaive(t *testing.T) { checkKernelBitExact(t, gemmKernels[1], 2) }
func TestGemmTBMatchesNaive(t *testing.T) { checkKernelBitExact(t, gemmKernels[2], 3) }

func checkKernelBitExact(t *testing.T, g gemmKernel, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {8, 8, 8},
		{3, 4, 1}, {7, 9, 1}, {1, 13, 1}, // n = 1
		{4, 5, 6}, {3, 6, 5}, {2, 7, 9}, {6, 8, 2}, // k mod 4 = 1, 2, 3, 0; n mod 4 = 2, 1, 1, 2
		{9, 1, 17}, {1, 2, 3}, {5, 3, 4},
		{32, 43, 40}, {12, 30, 43}, {16, 64, 10}, // conv-sized
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		la, lb := g.lens(m, k, n)
		for _, ka := range []string{"dense", "sparse", "signed", "zero"} {
			for _, kb := range []string{"dense", "signed"} {
				a, b := gemmFill(rng, ka, la), gemmFill(rng, kb, lb)
				for _, acc := range []bool{false, true} {
					checkGemmBits(t, g, a, b, gemmFill(rng, "signed", m*n), m, k, n, acc)
				}
			}
		}
	}
}

func TestGemmAccumulate(t *testing.T) {
	a := []float32{1, 2}
	b := []float32{3, 4}
	c := []float32{10}
	Gemm(a, b, c, 1, 2, 1, true)
	if c[0] != 10+1*3+2*4 {
		t.Errorf("accumulate gemm = %v, want 21", c[0])
	}
}

// TestGemmBufferChecks pins that every kernel checks its operand sizes
// up front, as Gemm does: a short operand panics with the kernel's own
// message, not an index error.
func TestGemmBufferChecks(t *testing.T) {
	m, k, n := 2, 3, 4
	for _, g := range gemmKernels {
		la, lb := g.lens(m, k, n)
		for _, short := range []string{"a", "b", "c"} {
			a, b, c := make([]float32, la), make([]float32, lb), make([]float32, m*n)
			switch short {
			case "a":
				a = a[:la-1]
			case "b":
				b = b[:lb-1]
			case "c":
				c = c[:m*n-1]
			}
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasSuffix(msg, "buffer too small") {
						t.Errorf("%s with a short %s: panic %q, want a buffer-size panic", g.name, short, msg)
					}
				}()
				g.got(a, b, c, m, k, n, false)
			}()
		}
	}
}

// FuzzGemm checks every kernel against its reference bit for bit on
// fuzzer-chosen shapes and operands. The operands cycle through data
// read as little-endian float32 words, so NaNs, infinities, subnormals
// and signed zeros all occur; plain go test runs the seed corpus.
func FuzzGemm(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), false, []byte{0, 0, 128, 63, 0, 0, 0, 64})
	f.Add(uint8(3), uint8(5), uint8(1), true, []byte{0, 0, 0, 128, 0, 0, 128, 191, 0, 0, 0, 0, 205, 204, 76, 62})
	f.Add(uint8(4), uint8(7), uint8(6), false, []byte{0, 0, 128, 127, 0, 0, 192, 127, 1, 0, 0, 0, 0, 0, 0, 128, 0, 0, 64, 64})
	f.Add(uint8(9), uint8(10), uint8(9), true, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 160, 64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 190})
	f.Fuzz(func(t *testing.T, m8, k8, n8 uint8, accumulate bool, data []byte) {
		words := len(data) / 4
		if words == 0 {
			return
		}
		m, k, n := int(m8%12)+1, int(k8%20)+1, int(n8%12)+1
		next := 0
		fill := func(s []float32) []float32 {
			for i := range s {
				s[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*(next%words):]))
				next++
			}
			return s
		}
		for _, g := range gemmKernels {
			la, lb := g.lens(m, k, n)
			a, b := fill(make([]float32, la)), fill(make([]float32, lb))
			checkGemmBits(t, g, a, b, fill(make([]float32, m*n)), m, k, n, accumulate)
		}
	})
}

func TestConvGeomDerive(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if err := g.Derive(); err != nil {
		t.Fatal(err)
	}
	if g.OutH != 32 || g.OutW != 32 {
		t.Errorf("same-pad conv out = %dx%d, want 32x32", g.OutH, g.OutW)
	}
	if g.K() != 27 || g.N() != 1024 {
		t.Errorf("K=%d N=%d, want 27, 1024", g.K(), g.N())
	}
}

func TestConvGeomDeriveErrors(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 2, InW: 2, OutC: 1, KH: 5, KW: 5, StrideH: 1, StrideW: 1}
	if err := g.Derive(); err == nil {
		t.Error("expected error for kernel larger than padded input")
	}
	g2 := ConvGeom{InC: 1, InH: 4, InW: 4, OutC: 1, KH: 2, KW: 2, StrideH: 0, StrideW: 1}
	if err := g2.Derive(); err == nil {
		t.Error("expected error for zero stride")
	}
}

// naiveConv computes direct convolution as a reference for im2col+gemm.
func naiveConv(g *ConvGeom, in, w []float32) []float32 {
	out := make([]float32, g.OutC*g.OutH*g.OutW)
	for oc := 0; oc < g.OutC; oc++ {
		for oh := 0; oh < g.OutH; oh++ {
			for ow := 0; ow < g.OutW; ow++ {
				var s float32
				for ic := 0; ic < g.InC; ic++ {
					for kh := 0; kh < g.KH; kh++ {
						for kw := 0; kw < g.KW; kw++ {
							ih := oh*g.StrideH - g.PadH + kh
							iw := ow*g.StrideW - g.PadW + kw
							if ih < 0 || ih >= g.InH || iw < 0 || iw >= g.InW {
								continue
							}
							wi := ((oc*g.InC+ic)*g.KH+kh)*g.KW + kw
							s += w[wi] * in[(ic*g.InH+ih)*g.InW+iw]
						}
					}
				}
				out[(oc*g.OutH+oh)*g.OutW+ow] = s
			}
		}
	}
	return out
}

func TestIm2colGemmMatchesDirectConv(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []ConvGeom{
		{InC: 2, InH: 6, InW: 6, OutC: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 1, InH: 8, InW: 8, OutC: 2, KH: 2, KW: 2, StrideH: 2, StrideW: 2},
		{InC: 3, InH: 5, InW: 7, OutC: 4, KH: 3, KW: 5, StrideH: 2, StrideW: 1, PadH: 1, PadW: 2},
	}
	for ci, g := range cases {
		if err := g.Derive(); err != nil {
			t.Fatal(err)
		}
		in := randSlice(rng, g.InC*g.InH*g.InW)
		w := randSlice(rng, g.OutC*g.K())
		want := naiveConv(&g, in, w)
		col := make([]float32, g.K()*g.N())
		Im2col(&g, in, col)
		got := make([]float32, g.OutC*g.N())
		Gemm(w, col, got, g.OutC, g.K(), g.N(), false)
		for i := range want {
			if math.Abs(float64(got[i]-want[i])) > 1e-4 {
				t.Fatalf("case %d: conv mismatch at %d: %v vs %v", ci, i, got[i], want[i])
			}
		}
	}
}

func TestCol2imIsIm2colAdjoint(t *testing.T) {
	// <Im2col(x), y> == <x, Col2im(y)> must hold for backprop to be exact.
	rng := rand.New(rand.NewSource(5))
	g := ConvGeom{InC: 2, InH: 5, InW: 5, OutC: 1, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	if err := g.Derive(); err != nil {
		t.Fatal(err)
	}
	x := randSlice(rng, g.InC*g.InH*g.InW)
	y := randSlice(rng, g.K()*g.N())
	cx := make([]float32, g.K()*g.N())
	Im2col(&g, x, cx)
	var lhs float64
	for i := range cx {
		lhs += float64(cx[i]) * float64(y[i])
	}
	xg := make([]float32, len(x))
	Col2im(&g, y, xg)
	var rhs float64
	for i := range x {
		rhs += float64(x[i]) * float64(xg[i])
	}
	if math.Abs(lhs-rhs) > 1e-3 {
		t.Errorf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestGemmLinearityProperty(t *testing.T) {
	// Gemm(a1+a2, b) == Gemm(a1,b) + Gemm(a2,b), checked via quick with
	// small fixed dims.
	m, k, n := 2, 3, 2
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a1, a2, b := randSlice(rng, m*k), randSlice(rng, m*k), randSlice(rng, k*n)
		sum := make([]float32, m*k)
		for i := range sum {
			sum[i] = a1[i] + a2[i]
		}
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		cs := make([]float32, m*n)
		Gemm(a1, b, c1, m, k, n, false)
		Gemm(a2, b, c2, m, k, n, false)
		Gemm(sum, b, cs, m, k, n, false)
		for i := range cs {
			if math.Abs(float64(cs[i]-(c1[i]+c2[i]))) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
