//go:build !race

package tensor

import "sync"

// The routines in gemm_amd64.s hold one C element per vector lane and
// take its products and additions as separately rounded MULPS/ADDPS (no
// FMA) in the order the Go kernels use, so every path computes the same
// bits. SSE2 is part of the amd64 baseline; the AVX routines run when
// hasAVX says the CPU has AVX and the OS saves its registers.

// kernelPaths are the build's GEMM kernels, fastest first.
var kernelPaths = []kernelPath{
	{name: "avx", rows: gemmRowsAVX, tb: gemmTBAVX, ok: hasAVX()},
	{name: "sse2", rows: gemmRowsSSE, tb: gemmTBSSE, ok: true},
	{name: "go", rows: gemmRowsGo, tb: gemmTBGo, ok: true},
}

// hasAVX reports whether CPUID and XGETBV say the CPU has AVX and the OS
// saves the YMM registers.
func hasAVX() bool

// gemmRowSSE and gemmRowAVX are gemmRowGo in assembly. gemmRowSSE walks
// the C row in strips of sixteen columns, then four, then one;
// gemmRowAVX in strips of 32, then one masked strip of four registers
// for the rest. Each strip stays in registers while p ascends over the
// whole A row; a zero A entry is skipped, a NaN is not.
//
//go:noescape
func gemmRowSSE(a []float32, stride, k int, b, crow []float32)

//go:noescape
func gemmRowAVX(a []float32, stride, k int, b, crow []float32)

// panelRowSSE and panelRowAVX are one row of GemmTB over the transposed
// B, in gemmRowSSE's and gemmRowAVX's strips: crow[j] += Σ a[p]·b[p*pitch+j],
// each sum taken from +0 in ascending p with no zero skip. len(a) must be
// positive. panelRowSSE's pitch is len(crow); panelRowAVX's is len(crow)
// rounded up to a multiple of 32, so that its last strip is a whole one.
//
//go:noescape
func panelRowSSE(a, b, crow []float32)

//go:noescape
func panelRowAVX(a, b, crow []float32)

func gemmRowsSSE(a []float32, step, stride, k int, b, c []float32, m, n int) {
	gemmRowsAsm(a, step, stride, k, b, c, m, n, false)
}

func gemmRowsAVX(a []float32, step, stride, k int, b, c []float32, m, n int) {
	gemmRowsAsm(a, step, stride, k, b, c, m, n, true)
}

// gemmRowsAsm runs gemmRowAVX (avx) or gemmRowSSE over the rows, after
// checking that the assembly may read a[i*step+p*stride] and B[p,:] for
// every p < k unchecked. With avx, rows of fewer than eight columns (an
// FC layer's n = 1) still run gemmRowSSE: its scalar chain runs such a
// row about 1.4× faster than one masked YMM register does.
func gemmRowsAsm(a []float32, step, stride, k int, b, c []float32, m, n int, avx bool) {
	if k == 0 || n == 0 {
		return
	}
	_ = b[k*n-1]
	for i := 0; i < m; i++ {
		ai, crow := a[i*step:], c[i*n:i*n+n]
		_ = ai[(k-1)*stride]
		if avx && n >= 8 {
			gemmRowAVX(ai, stride, k, b, crow)
		} else {
			gemmRowSSE(ai, stride, k, b, crow)
		}
	}
}

func gemmTBSSE(a, b, c []float32, m, k, n int) { gemmTBPanel(a, b, c, m, k, n, false) }

func gemmTBAVX(a, b, c []float32, m, k, n int) { gemmTBPanel(a, b, c, m, k, n, true) }

// panels holds the transposes of B that gemmTBPanel works on, one per
// goroutine running it, so that a warm GemmTB allocates nothing.
var panels = sync.Pool{New: func() any { return new([]float32) }}

// gemmTBPanel transposes B (n×k) once into a pooled k-row panel and runs
// panelRowAVX (avx) or panelRowSSE over each row of A and C. The panel's
// row pitch is n, or with avx n rounded up to a multiple of 32; the
// columns past n hold whatever the buffer held before, and the sums they
// feed never reach C.
func gemmTBPanel(a, b, c []float32, m, k, n int, avx bool) {
	if k == 0 || m == 0 || n == 0 {
		gemmTBGo(a, b, c, m, k, n)
		return
	}
	pitch := n
	if avx {
		pitch = (n + 31) &^ 31
	}
	buf := panels.Get().(*[]float32)
	if cap(*buf) < k*pitch {
		*buf = make([]float32, k*pitch)
	}
	panel := (*buf)[:k*pitch]
	transpose(b[:n*k], panel, n, k, pitch)
	for i := 0; i < m; i++ {
		if avx {
			panelRowAVX(a[i*k:i*k+k], panel, c[i*n:i*n+n])
		} else {
			panelRowSSE(a[i*k:i*k+k], panel, c[i*n:i*n+n])
		}
	}
	panels.Put(buf)
}

// transpose writes B (n×k) into the first n columns of panel as its
// transpose, k rows of pitch floats. It copies eight rows of B at a
// time, so that each panel row takes one contiguous run of eight.
func transpose(b, panel []float32, n, k, pitch int) {
	j := 0
	for ; j+8 <= n; j += 8 {
		b0 := b[j*k : j*k+k]
		b1 := b[(j+1)*k:][:len(b0)]
		b2 := b[(j+2)*k:][:len(b0)]
		b3 := b[(j+3)*k:][:len(b0)]
		b4 := b[(j+4)*k:][:len(b0)]
		b5 := b[(j+5)*k:][:len(b0)]
		b6 := b[(j+6)*k:][:len(b0)]
		b7 := b[(j+7)*k:][:len(b0)]
		for p, v := range b0 {
			dst := panel[p*pitch+j:][:8]
			dst[0], dst[1], dst[2], dst[3] = v, b1[p], b2[p], b3[p]
			dst[4], dst[5], dst[6], dst[7] = b4[p], b5[p], b6[p], b7[p]
		}
	}
	for ; j < n; j++ {
		for p, v := range b[j*k : j*k+k] {
			panel[p*pitch+j] = v
		}
	}
}
