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
// kernels replaced, kept as the bit-exact reference: the blocked kernels
// must perform the same float32 additions in the same order. The explicit
// float32 conversion of each product keeps the compiler from fusing it
// into the addition (as it would on arm64), so the reference is the same
// on every GOARCH.
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
				crow[j] += float32(av * brow[j])
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
				crow[j] += float32(av * brow[j])
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
				s += float32(arow[p] * brow[p])
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
// A and B operands for an m×k by k×n product. got is the exported
// kernel, which runs the build's fastest row kernels (SSE2 assembly on
// amd64 without -race); portable is the same kernel on the Go row
// kernels, which other GOARCH and -race builds run, so that every build
// checks both paths.
type gemmKernel struct {
	name               string
	got, portable, ref func(a, b, c []float32, m, k, n int, accumulate bool)
	lens               func(m, k, n int) (la, lb int)
}

var gemmKernels = []gemmKernel{
	{"Gemm", Gemm, func(a, b, c []float32, m, k, n int, acc bool) { gemm(a, b, c, m, k, n, acc, gemmRowGo) },
		refGemm, func(m, k, n int) (int, int) { return m * k, k * n }},
	{"GemmTA", GemmTA, func(a, b, c []float32, m, k, n int, acc bool) { gemmTA(a, b, c, m, k, n, acc, gemmRowGo) },
		refGemmTA, func(m, k, n int) (int, int) { return k * m, k * n }},
	{"GemmTB", GemmTB, func(a, b, c []float32, m, k, n int, acc bool) { gemmTB(a, b, c, m, k, n, acc, gemmTBRowGo) },
		refGemmTB, func(m, k, n int) (int, int) { return m * k, n * k }},
}

// gemmFill returns n operand values of the given kind: "dense" in
// [-1, 1), "sparse" with three zeros in four, "signed" drawn from signed
// zeros, ±1, subnormals and large values, "special" drawn from signed
// zeros, subnormals, ±Inf and NaN among dense values, or "zero" (+0 and
// -0 only).
func gemmFill(rng *rand.Rand, kind string, n int) []float32 {
	s := make([]float32, n)
	negZero := float32(math.Copysign(0, -1))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
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
		case "special":
			if rng.Intn(3) == 0 {
				s[i] = []float32{0, negZero, 1e-45, -2e-39, inf, -inf, nan}[rng.Intn(7)]
			} else {
				s[i] = rng.Float32()*2 - 1
			}
		case "zero":
			if rng.Intn(2) == 0 {
				s[i] = negZero
			}
		}
	}
	return s
}

// checkGemmBits runs kernel g, on both paths, and its reference on the
// same operands and initial C, and fails on the first element whose bits
// differ. The kernels see every operand start off floats into its
// allocation, so vector loads and stores meet every alignment. Two NaNs
// match whatever their bits: Go does not define which NaN an operation
// on NaNs returns.
func checkGemmBits(t *testing.T, g gemmKernel, a, b, c0 []float32, m, k, n int, accumulate bool, off int) {
	t.Helper()
	want := append([]float32(nil), c0...)
	g.ref(a, b, want, m, k, n, accumulate)
	a, b = shifted(a, off), shifted(b, off)
	for _, path := range []struct {
		name string
		run  func(a, b, c []float32, m, k, n int, accumulate bool)
	}{{g.name, g.got}, {g.name + "/go", g.portable}} {
		got := shifted(c0, off)
		path.run(a, b, got, m, k, n, accumulate)
		for i := range want {
			gb, wb := math.Float32bits(got[i]), math.Float32bits(want[i])
			if gb != wb && !(got[i] != got[i] && want[i] != want[i]) {
				t.Fatalf("%s m=%d k=%d n=%d accumulate=%v off=%d: element %d = %v (%#08x), reference %v (%#08x)",
					path.name, m, k, n, accumulate, off, i, got[i], gb, want[i], wb)
			}
		}
	}
}

// shifted returns a copy of s that starts off floats into its allocation.
func shifted(s []float32, off int) []float32 {
	return append(make([]float32, off, off+len(s)), s...)[off:]
}

// The MatchesNaive tests compare each kernel, on both paths, with its
// reference bit for bit over shapes that hit every code path: every n
// from 1 to 40, so every tail after the assembly's strips of 16 and 4
// columns (Gemm, GemmTA) and blocks of 8 and 4 outputs (GemmTB) and
// after the Go kernels' blocks of four; k mod 4 of 0 to 3 (the Go
// kernels' gather, GemmTB's tail after the transposed tiles); several
// strides m for GemmTA; dense, zero-heavy and all-zero operands, signed
// zeros, subnormals, ±Inf and NaN; accumulation into a C holding signed
// zeros; and operands starting 0 to 3 floats into their allocations.
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
		{48, 180, 32}, {48, 32, 180}, {180, 48, 32}, // HAR conv3: forward, weight and input gradient
	}
	for n := 1; n <= 40; n++ {
		shapes = append(shapes, [3]int{2, 1 + n%9, n}) // every n mod 16, n mod 8 and n mod 4
	}
	for k := 1; k <= 12; k++ {
		shapes = append(shapes, [3]int{2, k, 8 + k%5}) // every k mod 4
	}
	for _, m := range []int{1, 2, 3, 5, 16, 17} {
		shapes = append(shapes, [3]int{m, 6, 21}) // GemmTA strides
	}
	kinds := []string{"dense", "sparse", "signed", "special", "zero"}
	for si, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		la, lb := g.lens(m, k, n)
		for ai, ka := range kinds {
			for bi, kb := range kinds[:4] {
				a, b := gemmFill(rng, ka, la), gemmFill(rng, kb, lb)
				for _, acc := range []bool{false, true} {
					checkGemmBits(t, g, a, b, gemmFill(rng, "signed", m*n), m, k, n, acc, (si+ai+bi)%4)
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

// FuzzGemm checks every kernel, on both paths, against its reference bit
// for bit on fuzzer-chosen shapes, operands and operand offsets. The
// operands cycle through data read as little-endian float32 words, so
// NaNs, infinities, subnormals and signed zeros all occur; plain go test
// runs the seed corpus.
func FuzzGemm(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), false, []byte{0, 0, 128, 63, 0, 0, 0, 64})
	f.Add(uint8(3), uint8(5), uint8(1), true, []byte{0, 0, 0, 128, 0, 0, 128, 191, 0, 0, 0, 0, 205, 204, 76, 62})
	f.Add(uint8(4), uint8(7), uint8(6), false, []byte{0, 0, 128, 127, 0, 0, 192, 127, 1, 0, 0, 0, 0, 0, 0, 128, 0, 0, 64, 64})
	f.Add(uint8(9), uint8(10), uint8(9), true, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 160, 64, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 190})
	f.Add(uint8(0x35), uint8(11), uint8(21), true, []byte{0, 0, 128, 255, 0, 0, 0, 0, 0, 0, 192, 127, 1, 0, 0, 0, 205, 204, 76, 190, 0, 0, 0, 128, 0, 0, 128, 127, 0, 0, 64, 64, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, m8, k8, n8 uint8, accumulate bool, data []byte) {
		words := len(data) / 4
		if words == 0 {
			return
		}
		m, k, n := int(m8%12)+1, int(k8%20)+1, int(n8%40)+1
		off := int(m8>>4) % 4
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
			checkGemmBits(t, g, a, b, fill(make([]float32, m*n)), m, k, n, accumulate, off)
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

// refIm2col and refCol2im are the per-pixel loops the copy-run versions
// replaced, kept verbatim as the bit-exact reference.
func refIm2col(g *ConvGeom, in, col []float32) {
	if len(in) < g.InC*g.InH*g.InW {
		panic("tensor: im2col input too small")
	}
	n := g.N()
	if len(col) < g.K()*n {
		panic("tensor: im2col output too small")
	}
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := in[c*g.InH*g.InW:]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				dst := col[row*n:]
				i := 0
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH {
						for ow := 0; ow < g.OutW; ow++ {
							dst[i] = 0
							i++
						}
						continue
					}
					base := ih * g.InW
					for ow := 0; ow < g.OutW; ow++ {
						iw := ow*g.StrideW - g.PadW + kw
						if iw < 0 || iw >= g.InW {
							dst[i] = 0
						} else {
							dst[i] = plane[base+iw]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

func refCol2im(g *ConvGeom, col, in []float32) {
	for i := range in[:g.InC*g.InH*g.InW] {
		in[i] = 0
	}
	n := g.N()
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := in[c*g.InH*g.InW:]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				src := col[row*n:]
				i := 0
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH {
						i += g.OutW
						continue
					}
					base := ih * g.InW
					for ow := 0; ow < g.OutW; ow++ {
						iw := ow*g.StrideW - g.PadW + kw
						if iw >= 0 && iw < g.InW {
							plane[base+iw] += src[i]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// TestIm2colCol2imMatchRef compares both lowerings with the per-pixel
// loops bit for bit, over the HAR and CKS geometries, edge cases
// (padding wider than the kernel, strides 2 and 3 with KH > 1, kernel
// columns that see no input column at all) and random geometries. The
// buffers are filled with a sentinel first, so a skipped element shows.
func TestIm2colCol2imMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	geoms := []ConvGeom{
		{InC: 20, InH: 1, InW: 32, OutC: 48, KH: 1, KW: 9, StrideH: 1, StrideW: 1, PadW: 4},       // HAR conv3
		{InC: 48, InH: 3, InW: 46, OutC: 32, KH: 3, KW: 4, StrideH: 1, StrideW: 1},                // CKS conv2
		{InC: 2, InH: 3, InW: 4, OutC: 1, KH: 2, KW: 2, StrideH: 1, StrideW: 1, PadH: 3, PadW: 5}, // padding > kernel
		{InC: 2, InH: 7, InW: 9, OutC: 1, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{InC: 1, InH: 8, InW: 10, OutC: 1, KH: 4, KW: 5, StrideH: 3, StrideW: 3, PadH: 2, PadW: 4},
		{InC: 1, InH: 1, InW: 1, OutC: 1, KH: 1, KW: 7, StrideH: 1, StrideW: 1, PadW: 3}, // one valid kw only
		{InC: 1, InH: 2, InW: 2, OutC: 1, KH: 1, KW: 9, StrideH: 1, StrideW: 3, PadW: 4}, // empty ranges at stride 3
		{InC: 1, InH: 2, InW: 3, OutC: 1, KH: 5, KW: 1, StrideH: 2, StrideW: 1, PadH: 3}, // rows that see no input row
	}
	for len(geoms) < 400 {
		geoms = append(geoms, ConvGeom{
			InC: 1 + rng.Intn(3), InH: 1 + rng.Intn(6), InW: 1 + rng.Intn(12), OutC: 1,
			KH: 1 + rng.Intn(4), KW: 1 + rng.Intn(6), StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3),
			PadH: rng.Intn(5), PadW: rng.Intn(7),
		})
	}
	const sentinel = 42
	sameBits := func(what string, g *ConvGeom, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s %+v: element %d = %v, reference %v", what, *g, i, got[i], want[i])
			}
		}
	}
	checked := 0
	for _, g := range geoms {
		if g.Derive() != nil {
			continue
		}
		checked++
		in := gemmFill(rng, "signed", g.InC*g.InH*g.InW)
		cols := gemmFill(rng, "dense", g.K()*g.N())
		got, want := make([]float32, len(cols)), make([]float32, len(cols))
		for i := range got {
			got[i], want[i] = sentinel, sentinel
		}
		Im2col(&g, in, got)
		refIm2col(&g, in, want)
		sameBits("Im2col", &g, got, want)

		gotIn, wantIn := make([]float32, len(in)), make([]float32, len(in))
		for i := range gotIn {
			gotIn[i], wantIn[i] = sentinel, sentinel
		}
		Col2im(&g, cols, gotIn)
		refCol2im(&g, cols, wantIn)
		sameBits("Col2im", &g, gotIn, wantIn)
	}
	if checked < 200 {
		t.Fatalf("only %d of %d geometries were valid", checked, len(geoms))
	}
}

// TestIm2colCol2imBufferChecks pins that both lowerings check their
// buffer sizes up front: a short input or output panics with a
// buffer-size message, not a runtime index error.
func TestIm2colCol2imBufferChecks(t *testing.T) {
	g := ConvGeom{InC: 2, InH: 4, InW: 5, OutC: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if err := g.Derive(); err != nil {
		t.Fatal(err)
	}
	pix, cols := g.InC*g.InH*g.InW, g.K()*g.N()
	for _, tc := range []struct {
		name    string
		run     func(pixels, patches []float32)
		pixLen  int
		colsLen int
	}{
		{"Im2col short input", func(p, c []float32) { Im2col(&g, p, c) }, pix - 1, cols},
		{"Im2col short output", func(p, c []float32) { Im2col(&g, p, c) }, pix, cols - 1},
		{"Col2im short input", func(p, c []float32) { Col2im(&g, c, p) }, pix, cols - 1},
		{"Col2im short output", func(p, c []float32) { Col2im(&g, c, p) }, pix - 1, cols},
	} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.HasSuffix(msg, "too small") {
					t.Errorf("%s: panic %v, want a buffer-size panic", tc.name, r)
				}
			}()
			tc.run(make([]float32, tc.pixLen), make([]float32, tc.colsLen))
		}()
	}
}
