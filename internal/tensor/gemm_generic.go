//go:build !amd64 || race

package tensor

// kernelPaths are the build's GEMM kernels: without the assembly
// routines (other GOARCH, and -race builds, whose detector cannot see
// the loads and stores assembly makes) only the portable Go kernels.
var kernelPaths = []kernelPath{{name: "go", rows: gemmRowsGo, tb: gemmTBGo, ok: true}}
