//go:build !race

package tensor

// SSE2 is part of the amd64 baseline, so these routines need no CPU
// check. Each vector lane holds one C element and takes its products and
// additions as separately rounded MULPS/ADDPS (no FMA) in the order the
// Go kernels use, so both paths compute the same bits.

// gemmRowSSE is gemmRowGo in assembly. It walks the C row in strips of
// sixteen columns, then four, then one, holding each strip in registers
// while p ascends over the whole A row; a zero A entry is skipped, a NaN
// is not.
//
//go:noescape
func gemmRowSSE(a []float32, stride, k int, b, crow []float32)

// dot8SSE sets s[l] to the dot product of a with row l of the
// 8×len(a) matrix whose rows start k floats apart in b, summed from +0
// in ascending p. It transposes 4×4 tiles of the rows, so that four sums
// are the lanes of one register. len(a) must be a multiple of 4.
//
//go:noescape
func dot8SSE(a, b []float32, k int, s *[8]float32)

func gemmRow(a []float32, stride, k int, b, crow []float32) {
	n := len(crow)
	if k == 0 || n == 0 {
		return
	}
	// The assembly reads a[p*stride] and B[p,:] for every p < k unchecked.
	_, _ = a[(k-1)*stride], b[k*n-1]
	gemmRowSSE(a, stride, k, b, crow)
}

// gemmTBRow runs each block of eight outputs through dot8SSE up to the
// last multiple of four of k, finishes the sums in Go, and leaves the
// last n mod 8 outputs to gemmTBRowGo.
func gemmTBRow(arow, b, crow []float32) {
	k, n := len(arow), len(crow)
	k4 := k &^ 3
	j := 0
	for ; j+8 <= n; j += 8 {
		var s [8]float32
		dot8SSE(arow[:k4], b[j*k:(j+7)*k+k4], k, &s)
		if k4 < k {
			for l := range s {
				brow := b[(j+l)*k+k4 : (j+l)*k+k]
				for p, bv := range brow {
					s[l] += float32(arow[k4+p] * bv)
				}
			}
		}
		c := crow[j : j+8]
		for l, t := range s {
			c[l] += t
		}
	}
	if j < n {
		gemmTBRowGo(arow, b[j*k:], crow[j:])
	}
}
