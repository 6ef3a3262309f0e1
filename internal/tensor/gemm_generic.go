//go:build !amd64 || race

package tensor

// Without the SSE2 routines (other GOARCH, and -race builds, whose
// detector cannot see the loads and stores assembly makes) the GEMM rows
// run the portable Go kernels.

func gemmRow(a []float32, stride, k int, b, crow []float32) { gemmRowGo(a, stride, k, b, crow) }

func gemmTBRow(arow, b, crow []float32) { gemmTBRowGo(arow, b, crow) }
