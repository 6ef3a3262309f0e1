// Package tensor provides the dense float32 tensor type and the handful of
// linear-algebra primitives (GEMM, im2col) the training and inference
// stacks are built on.
//
// Convolutions throughout the repository are lowered to matrix
// multiplication following the GEMM-based algorithms of Anderson et al.
// (cited as [2] in the paper), which is also the lowering HAWAII⁺ uses on
// the LEA; keeping the training-side math in the same shape as the
// device-side math is what lets one tiling description drive both.
package tensor

import "fmt"

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zeroed tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromData wraps an existing slice; the slice is not copied.
func FromData(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// At returns the element at the given multi-index (bounds-checked through
// the flat index computation; primarily for tests and small paths).
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.flat(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.flat(idx)] = v
}

func (t *Tensor) flat(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d vs shape rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// Gemm computes C = A·B (+C if accumulate) for row-major matrices:
// A is m×k, B is k×n, C is m×n.
//
// The loop is blocked in registers: for each C row it gathers the next
// four nonzero entries of the A row and applies them in one pass over
// the row, each C element held in a register across its four additions,
// so C is loaded and stored once per four products instead of once per
// product. With n == 1 each row is a scalar dot product. On amd64 the
// row is an assembly routine instead (gemm_amd64.s), AVX where the CPU
// has it and SSE2 otherwise, which holds a strip of 32 (AVX) or sixteen
// (SSE2) C elements in registers across the whole row of A. The result is
// bit-identical to the plain i-p-j loop on every path: every C element
// still takes its products one at a time, in ascending p, each product
// and each addition rounded to float32 (never fused), and a product whose
// A entry is zero is still skipped (adding it could turn a -0 sum into
// +0, or make a NaN from 0·Inf).
//
//iprune:hotpath
//iprune:allow-budget training-time float kernel; runs on the workstation and never inside a harvested power cycle
func Gemm(a, b, c []float32, m, k, n int, accumulate bool) {
	gemm(a, b, c, m, k, n, accumulate, kernels.rows)
}

// rowsKernel adds a[i*step+p*stride]·B[p,:] to row i of C for every
// i < m, p ascending from 0 to k-1, skipping zero A entries, where B is
// k×n and C is m×n: Gemm (step k, stride 1) and GemmTA (step 1,
// stride m) after their checks. It calls its row routine directly, once
// per row.
type rowsKernel func(a []float32, step, stride, k int, b, c []float32, m, n int)

// tbKernel adds A·Bᵀ to C, where A is m×k, B is n×k and C is m×n, each
// C element adding one dot product summed from +0 in ascending p with no
// zero skip: GemmTB after its checks.
type tbKernel func(a, b, c []float32, m, k, n int)

// kernelPath is one implementation of the GEMM kernels. ok says whether
// the host can run it.
type kernelPath struct {
	name string
	rows rowsKernel
	tb   tbKernel
	ok   bool
}

// kernels is the path Gemm, GemmTA and GemmTB run: the first of the
// build's kernelPaths, fastest first, that the host can run. The Go
// kernels come last and run everywhere.
var kernels = func() kernelPath {
	for _, p := range kernelPaths {
		if p.ok {
			return p
		}
	}
	panic("tensor: no GEMM kernels for this host")
}()

func gemm(a, b, c []float32, m, k, n int, accumulate bool, rows rowsKernel) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: gemm buffer too small")
	}
	if !accumulate {
		clear(c[:m*n])
	}
	rows(a, k, 1, k, b, c, m, n)
}

// GemmTA computes C = Aᵀ·B (+C if accumulate) where A is k×m (so Aᵀ is
// m×k), B is k×n, C is m×n. Used by backprop for input gradients
// (Wᵀ·dY). Row i of C gathers column i of A; the order of additions, and
// so every bit of the result, is Gemm's on the transposed A.
func GemmTA(a, b, c []float32, m, k, n int, accumulate bool) {
	gemmTA(a, b, c, m, k, n, accumulate, kernels.rows)
}

func gemmTA(a, b, c []float32, m, k, n int, accumulate bool, rows rowsKernel) {
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		panic("tensor: gemmTA buffer too small")
	}
	if !accumulate {
		clear(c[:m*n])
	}
	rows(a, 1, m, k, b, c, m, n)
}

// gemmRowsGo is the portable rowsKernel.
func gemmRowsGo(a []float32, step, stride, k int, b, c []float32, m, n int) {
	for i := 0; i < m; i++ {
		gemmRowGo(a[i*step:], stride, k, b, c[i*n:i*n+n])
	}
}

// gemmRowGo adds a[p*stride]·B[p,:] to crow for p ascending from 0 to
// k-1, skipping zero A entries, blocked as Gemm describes: one row of
// gemmRowsGo.
func gemmRowGo(a []float32, stride, k int, b, crow []float32) {
	n := len(crow)
	if n == 1 {
		s := crow[0]
		for p := 0; p < k; p++ {
			if av := a[p*stride]; av != 0 {
				s += float32(av * b[p])
			}
		}
		crow[0] = s
		return
	}
	var av [4]float32
	var off [4]int
	q := 0
	for p := 0; p < k; p++ {
		v := a[p*stride]
		if v == 0 {
			continue
		}
		av[q], off[q] = v, p*n
		q++
		if q == len(av) {
			axpy4(av[0], av[1], av[2], av[3],
				b[off[0]:off[0]+n], b[off[1]:off[1]+n], b[off[2]:off[2]+n], b[off[3]:off[3]+n], crow)
			q = 0
		}
	}
	for t := 0; t < q; t++ {
		axpy1(av[t], b[off[t]:off[t]+n], crow)
	}
}

// axpy4 computes c[j] = (((c[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j],
// rounding to float32 after every operation.
func axpy4(a0, a1, a2, a3 float32, b0, b1, b2, b3, c []float32) {
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	for j, s := range c {
		s += float32(a0 * b0[j])
		s += float32(a1 * b1[j])
		s += float32(a2 * b2[j])
		s += float32(a3 * b3[j])
		c[j] = s
	}
}

// axpy1 computes c[j] += a·b[j].
func axpy1(a float32, b, c []float32) {
	b = b[:len(c)]
	for j := range c {
		c[j] += float32(a * b[j])
	}
}

// GemmTB computes C = A·Bᵀ (+C if accumulate) where A is m×k, B is n×k,
// C is m×n. Used by backprop for weight gradients (dY·colᵀ). Each C
// element adds one dot product, summed from zero in ascending p with no
// zero skip. The Go kernel shares each pass over the A row among four
// outputs, with four independent accumulators; the assembly (amd64)
// transposes B once per call into a k×n panel and runs Gemm's strips
// over it, a strip of sums per pass over the A row. Either way every
// sum, and the result, is that of one dot product at a time.
func GemmTB(a, b, c []float32, m, k, n int, accumulate bool) {
	gemmTB(a, b, c, m, k, n, accumulate, kernels.tb)
}

func gemmTB(a, b, c []float32, m, k, n int, accumulate bool, tb tbKernel) {
	if len(a) < m*k || len(b) < n*k || len(c) < m*n {
		panic("tensor: gemmTB buffer too small")
	}
	if !accumulate {
		clear(c[:m*n])
	}
	tb(a, b, c, m, k, n)
}

// gemmTBGo is the portable tbKernel.
func gemmTBGo(a, b, c []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		gemmTBRowGo(a[i*k:i*k+k], b, c[i*n:i*n+n])
	}
}

// gemmTBRowGo is one row of gemmTBGo: crow[j] += arow·B[j,:].
func gemmTBRowGo(arow, b, crow []float32) {
	k, n := len(arow), len(crow)
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := b[j*k : j*k+k][:len(arow)]
		b1 := b[(j+1)*k : (j+1)*k+k][:len(arow)]
		b2 := b[(j+2)*k : (j+2)*k+k][:len(arow)]
		b3 := b[(j+3)*k : (j+3)*k+k][:len(arow)]
		var s0, s1, s2, s3 float32
		for p, av := range arow {
			s0 += float32(av * b0[p])
			s1 += float32(av * b1[p])
			s2 += float32(av * b2[p])
			s3 += float32(av * b3[p])
		}
		crow[j] += s0
		crow[j+1] += s1
		crow[j+2] += s2
		crow[j+3] += s3
	}
	for ; j < n; j++ {
		brow := b[j*k : j*k+k][:len(arow)]
		var s float32
		for p, av := range arow {
			s += float32(av * brow[p])
		}
		crow[j] += s
	}
}

// ConvGeom describes the spatial geometry of a 2-D convolution.
type ConvGeom struct {
	InC, InH, InW int
	OutC          int
	KH, KW        int
	StrideH       int
	StrideW       int
	PadH, PadW    int
	OutH, OutW    int // derived; filled by Derive
}

// Derive fills OutH/OutW from the other fields and validates them.
func (g *ConvGeom) Derive() error {
	if g.StrideH <= 0 || g.StrideW <= 0 {
		return fmt.Errorf("tensor: non-positive stride in %+v", *g)
	}
	g.OutH = (g.InH+2*g.PadH-g.KH)/g.StrideH + 1
	g.OutW = (g.InW+2*g.PadW-g.KW)/g.StrideW + 1
	if g.OutH <= 0 || g.OutW <= 0 {
		return fmt.Errorf("tensor: conv geometry produces empty output: %+v", *g)
	}
	return nil
}

// K returns the GEMM reduction dimension of the lowered convolution.
func (g *ConvGeom) K() int { return g.InC * g.KH * g.KW }

// N returns the GEMM output-column dimension of the lowered convolution.
func (g *ConvGeom) N() int { return g.OutH * g.OutW }

// outCols returns the range [lo, hi) of output columns ow whose input
// column ow*StrideW - PadW + kw falls inside [0, InW); lo == hi when no
// column does. Both lie in [0, OutW].
func (g *ConvGeom) outCols(kw int) (lo, hi int) {
	if d := g.PadW - kw; d > 0 {
		lo = min((d+g.StrideW-1)/g.StrideW, g.OutW)
	}
	hi = lo
	if d := g.InW - 1 + g.PadW - kw; d >= 0 {
		hi = max(lo, min(d/g.StrideW+1, g.OutW))
	}
	return lo, hi
}

// Im2col lowers an input feature map (C×H×W, flattened) into the K×N
// patch matrix such that W·col = output. col must have length K()*N().
// Each output row is a run of input pixels between two runs of padding
// zeros, so it is written as clear, copy (or a strided gather), clear.
func Im2col(g *ConvGeom, in, col []float32) {
	if len(in) < g.InC*g.InH*g.InW {
		panic("tensor: im2col input too small")
	}
	n := g.N()
	if len(col) < g.K()*n {
		panic("tensor: im2col output too small")
	}
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := in[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				lo, hi := g.outCols(kw)
				dst := col[row*n : row*n+n]
				for oh := 0; oh < g.OutH; oh++ {
					out := dst[oh*g.OutW : oh*g.OutW+g.OutW]
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH || lo == hi {
						clear(out)
						continue
					}
					clear(out[:lo])
					clear(out[hi:])
					src := plane[ih*g.InW : ih*g.InW+g.InW]
					iw := lo*g.StrideW - g.PadW + kw
					if g.StrideW == 1 {
						copy(out[lo:hi], src[iw:])
						continue
					}
					for ow := lo; ow < hi; ow++ {
						out[ow] = src[iw]
						iw += g.StrideW
					}
				}
				row++
			}
		}
	}
}

// Col2im scatters gradients from the patch-matrix layout back to the input
// feature map layout, accumulating overlapping contributions. in is zeroed
// first. Every input pixel takes its contributions in the order of the
// plain loop over (c, kh, kw, oh, ow); only the padding is skipped.
func Col2im(g *ConvGeom, col, in []float32) {
	n := g.N()
	if len(col) < g.K()*n {
		panic("tensor: col2im input too small")
	}
	if len(in) < g.InC*g.InH*g.InW {
		panic("tensor: col2im output too small")
	}
	clear(in[:g.InC*g.InH*g.InW])
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := in[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				lo, hi := g.outCols(kw)
				src := col[row*n : row*n+n]
				for oh := 0; oh < g.OutH; oh++ {
					ih := oh*g.StrideH - g.PadH + kh
					if ih < 0 || ih >= g.InH || lo == hi {
						continue
					}
					run := src[oh*g.OutW+lo : oh*g.OutW+hi]
					dst := plane[ih*g.InW : ih*g.InW+g.InW]
					iw := lo*g.StrideW - g.PadW + kw
					// At stride 1 the run lands on one span of dst;
					// slicing it out drops the per-element bounds check
					// the strided loop pays (about 2× faster on HAR's
					// convolutions). Both add in the same order.
					if g.StrideW == 1 {
						dst = dst[iw : iw+len(run)]
						for i, v := range run {
							dst[i] += v
						}
						continue
					}
					for _, v := range run {
						dst[iw] += v
						iw += g.StrideW
					}
				}
				row++
			}
		}
	}
}
