//go:build !race

#include "textflag.h"

// Both routines use SSE/SSE2 only. Every lane is one C element: MULPS
// rounds each product and ADDPS each sum to float32, in the order the Go
// kernels in tensor.go add them.

// func gemmRowSSE(a []float32, stride, k int, b, crow []float32)
//
// For each strip of crow (sixteen columns, then four, then one): load the
// strip, then for p = 0..k-1 with a[p*stride] not zero add a[p*stride]
// times the strip's columns of B row p, then store the strip. UCOMISS sets
// ZF for equal and for unordered operands; PF tells them apart, so a NaN
// A entry is applied, as in Go, and only ±0 is skipped.
//
// The caller guarantees k > 0, len(a) > (k-1)*stride and
// len(b) >= k*len(crow).
TEXT ·gemmRowSSE(SB), NOSPLIT, $0-88
	MOVQ  a_base+0(FP), SI
	MOVQ  stride+24(FP), R8
	SHLQ  $2, R8                 // A step in bytes
	MOVQ  k+32(FP), CX
	MOVQ  b_base+40(FP), DX      // B column of the current strip
	MOVQ  crow_base+64(FP), DI   // C column of the current strip
	MOVQ  crow_len+72(FP), BX    // columns left
	MOVQ  BX, R9
	SHLQ  $2, R9                 // B row pitch in bytes
	XORPS X14, X14

strip16:
	CMPQ   BX, $16
	JLT    strip4
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   CX, R12

loop16:
	MOVSS   (R10), X4
	UCOMISS X14, X4
	JPS     apply16
	JEQ     next16

apply16:
	SHUFPS $0x00, X4, X4
	MOVUPS 0(R11), X5
	MOVUPS 16(R11), X6
	MOVUPS 32(R11), X7
	MOVUPS 48(R11), X8
	MULPS  X4, X5
	MULPS  X4, X6
	MULPS  X4, X7
	MULPS  X4, X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3

next16:
	ADDQ   R8, R10
	ADDQ   R9, R11
	DECQ   R12
	JNZ    loop16
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, DX
	SUBQ   $16, BX
	JMP    strip16

strip4:
	CMPQ   BX, $4
	JLT    strip1
	MOVUPS (DI), X0
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   CX, R12

loop4:
	MOVSS   (R10), X4
	UCOMISS X14, X4
	JPS     apply4
	JEQ     next4

apply4:
	SHUFPS $0x00, X4, X4
	MOVUPS (R11), X5
	MULPS  X4, X5
	ADDPS  X5, X0

next4:
	ADDQ   R8, R10
	ADDQ   R9, R11
	DECQ   R12
	JNZ    loop4
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, DX
	SUBQ   $4, BX
	JMP    strip4

strip1:
	TESTQ BX, BX
	JEQ   done
	MOVSS (DI), X0
	MOVQ  SI, R10
	MOVQ  DX, R11
	MOVQ  CX, R12

loop1:
	MOVSS   (R10), X4
	UCOMISS X14, X4
	JPS     apply1
	JEQ     next1

apply1:
	MOVSS (R11), X5
	MULSS X4, X5
	ADDSS X5, X0

next1:
	ADDQ  R8, R10
	ADDQ  R9, R11
	DECQ  R12
	JNZ   loop1
	MOVSS X0, (DI)
	ADDQ  $4, DI
	ADDQ  $4, DX
	DECQ  BX
	JMP   strip1

done:
	RET

// func dot8SSE(a, b []float32, k int, s *[8]float32)
//
// Each step loads a[p:p+4] and columns p..p+3 of the eight B rows, turns
// each 4×4 tile (rows 0-3, rows 4-7) so that its column q is one register
// holding four rows' entries at p+q, and adds a[p+q] times it for q = 0..3
// in turn: lane l of accumulator X0 (rows 0-3) or X10 (rows 4-7) sums a
// times one B row from +0 in ascending p. One accumulator alone would be a
// chain of dependent ADDPS no faster than four scalar chains; the second
// tile's independent chain fills the wait.
//
// The caller guarantees len(a) is a multiple of 4 and
// len(b) >= 7*k + len(a).
TEXT ·dot8SSE(SB), NOSPLIT, $0-64
	MOVQ  a_base+0(FP), SI
	MOVQ  a_len+8(FP), CX
	SHLQ  $2, CX                 // end offset in bytes
	MOVQ  b_base+24(FP), DX      // row 0
	MOVQ  k+48(FP), R8
	SHLQ  $2, R8
	LEAQ  (DX)(R8*1), R9         // row 1
	LEAQ  (R9)(R8*1), R10        // row 2
	LEAQ  (R10)(R8*1), R11       // row 3
	LEAQ  (R11)(R8*1), R12       // row 4
	LEAQ  (R12)(R8*1), R13       // row 5
	LEAQ  (R13)(R8*1), BX        // row 6
	LEAQ  (BX)(R8*1), DI         // row 7
	XORPS X0, X0
	XORPS X10, X10
	XORQ  AX, AX
	TESTQ CX, CX
	JEQ   store

loop:
	MOVUPS (SI)(AX*1), X8
	PSHUFD $0x00, X8, X9
	PSHUFD $0x55, X8, X11
	PSHUFD $0xaa, X8, X12
	PSHUFD $0xff, X8, X8

	MOVUPS   (DX)(AX*1), X1
	MOVUPS   (R9)(AX*1), X2
	MOVUPS   (R10)(AX*1), X3
	MOVUPS   (R11)(AX*1), X4
	MOVAPS   X1, X5
	UNPCKLPS X2, X5              // b0[p], b1[p], b0[p+1], b1[p+1]
	UNPCKHPS X2, X1              // b0[p+2], b1[p+2], b0[p+3], b1[p+3]
	MOVAPS   X3, X6
	UNPCKLPS X4, X6              // b2[p], b3[p], b2[p+1], b3[p+1]
	UNPCKHPS X4, X3              // b2[p+2], b3[p+2], b2[p+3], b3[p+3]
	MOVAPS   X5, X7
	MOVLHPS  X6, X7              // column p
	MOVHLPS  X5, X6              // column p+1
	MOVAPS   X1, X2
	MOVLHPS  X3, X2              // column p+2
	MOVHLPS  X1, X3              // column p+3
	MULPS    X9, X7
	ADDPS    X7, X0
	MULPS    X11, X6
	ADDPS    X6, X0
	MULPS    X12, X2
	ADDPS    X2, X0
	MULPS    X8, X3
	ADDPS    X3, X0

	MOVUPS   (R12)(AX*1), X1
	MOVUPS   (R13)(AX*1), X2
	MOVUPS   (BX)(AX*1), X3
	MOVUPS   (DI)(AX*1), X4
	MOVAPS   X1, X5
	UNPCKLPS X2, X5
	UNPCKHPS X2, X1
	MOVAPS   X3, X6
	UNPCKLPS X4, X6
	UNPCKHPS X4, X3
	MOVAPS   X5, X7
	MOVLHPS  X6, X7
	MOVHLPS  X5, X6
	MOVAPS   X1, X2
	MOVLHPS  X3, X2
	MOVHLPS  X1, X3
	MULPS    X9, X7
	ADDPS    X7, X10
	MULPS    X11, X6
	ADDPS    X6, X10
	MULPS    X12, X2
	ADDPS    X2, X10
	MULPS    X8, X3
	ADDPS    X3, X10

	ADDQ $16, AX
	CMPQ AX, CX
	JLT  loop

store:
	MOVQ   s+56(FP), DI
	MOVUPS X0, (DI)
	MOVUPS X10, 16(DI)
	RET
