//go:build !race

#include "textflag.h"

// Every lane is one C element: MULPS rounds each product and ADDPS each
// sum to float32, never fused, in the order the Go kernels in tensor.go
// add them. The SSE routines use SSE/SSE2 only; the AVX routines use
// only VEX-encoded instructions, since a legacy SSE instruction between
// them pays the SSE/AVX transition penalty, and clear the upper halves of
// the YMM registers with VZEROUPPER before they return.

// func hasAVX() bool
//
// CPUID leaf 1 ECX bit 28 says the CPU has AVX and bit 27 (OSXSAVE) that
// the OS enabled XGETBV; XCR0 bits 1 and 2 say the OS saves the XMM and
// YMM state across context switches.
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   noavx
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   noavx
	MOVB  $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

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

// func panelRowSSE(a, b, crow []float32)
//
// GemmTB's row over the transposed B: for each strip of crow (sixteen
// columns, then four, then one), sum a[p] times the strip's columns of
// B row p from +0 for p = 0..len(a)-1, with no zero skip, then add the
// sums to the strip.
//
// The caller guarantees len(a) > 0 and len(b) >= len(a)*len(crow).
TEXT ·panelRowSSE(SB), NOSPLIT, $0-72
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DX       // B column of the current strip
	MOVQ crow_base+48(FP), DI    // C column of the current strip
	MOVQ crow_len+56(FP), BX     // columns left
	MOVQ BX, R9
	SHLQ $2, R9                  // B row pitch in bytes

pstrip16:
	CMPQ  BX, $16
	JLT   pstrip4
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  SI, R10
	MOVQ  DX, R11
	MOVQ  CX, R12

ploop16:
	MOVSS  (R10), X4
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
	ADDQ   $4, R10
	ADDQ   R9, R11
	DECQ   R12
	JNZ    ploop16
	MOVUPS 0(DI), X5
	MOVUPS 16(DI), X6
	MOVUPS 32(DI), X7
	MOVUPS 48(DI), X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, DX
	SUBQ   $16, BX
	JMP    pstrip16

pstrip4:
	CMPQ  BX, $4
	JLT   pstrip1
	XORPS X0, X0
	MOVQ  SI, R10
	MOVQ  DX, R11
	MOVQ  CX, R12

ploop4:
	MOVSS  (R10), X4
	SHUFPS $0x00, X4, X4
	MOVUPS (R11), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	ADDQ   $4, R10
	ADDQ   R9, R11
	DECQ   R12
	JNZ    ploop4
	MOVUPS (DI), X5
	ADDPS  X5, X0
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, DX
	SUBQ   $4, BX
	JMP    pstrip4

pstrip1:
	TESTQ BX, BX
	JEQ   pdone
	XORPS X0, X0
	MOVQ  SI, R10
	MOVQ  DX, R11
	MOVQ  CX, R12

ploop1:
	MOVSS (R10), X4
	MULSS (R11), X4
	ADDSS X4, X0
	ADDQ  $4, R10
	ADDQ  R9, R11
	DECQ  R12
	JNZ   ploop1
	ADDSS (DI), X0
	MOVSS X0, (DI)
	ADDQ  $4, DI
	ADDQ  $4, DX
	DECQ  BX
	JMP   pstrip1

pdone:
	RET

// tailmask is 32 words of all ones, then 32 zero words. The 32 words
// from byte 4*(32-r) on are the lane mask of an r-column tail strip:
// lane j is set for j < r.
DATA tailmask<>+0x00(SB)/8, $-1
DATA tailmask<>+0x08(SB)/8, $-1
DATA tailmask<>+0x10(SB)/8, $-1
DATA tailmask<>+0x18(SB)/8, $-1
DATA tailmask<>+0x20(SB)/8, $-1
DATA tailmask<>+0x28(SB)/8, $-1
DATA tailmask<>+0x30(SB)/8, $-1
DATA tailmask<>+0x38(SB)/8, $-1
DATA tailmask<>+0x40(SB)/8, $-1
DATA tailmask<>+0x48(SB)/8, $-1
DATA tailmask<>+0x50(SB)/8, $-1
DATA tailmask<>+0x58(SB)/8, $-1
DATA tailmask<>+0x60(SB)/8, $-1
DATA tailmask<>+0x68(SB)/8, $-1
DATA tailmask<>+0x70(SB)/8, $-1
DATA tailmask<>+0x78(SB)/8, $-1
DATA tailmask<>+0x80(SB)/8, $0
DATA tailmask<>+0x88(SB)/8, $0
DATA tailmask<>+0x90(SB)/8, $0
DATA tailmask<>+0x98(SB)/8, $0
DATA tailmask<>+0xa0(SB)/8, $0
DATA tailmask<>+0xa8(SB)/8, $0
DATA tailmask<>+0xb0(SB)/8, $0
DATA tailmask<>+0xb8(SB)/8, $0
DATA tailmask<>+0xc0(SB)/8, $0
DATA tailmask<>+0xc8(SB)/8, $0
DATA tailmask<>+0xd0(SB)/8, $0
DATA tailmask<>+0xd8(SB)/8, $0
DATA tailmask<>+0xe0(SB)/8, $0
DATA tailmask<>+0xe8(SB)/8, $0
DATA tailmask<>+0xf0(SB)/8, $0
DATA tailmask<>+0xf8(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $256

// func gemmRowAVX(a []float32, stride, k int, b, crow []float32)
//
// gemmRowSSE on eight-lane registers: 32-column strips held in four YMM
// accumulators, then the last len(crow) mod 32 columns as one strip of
// four accumulators whose loads and stores VMASKMOVPS limits to the
// columns that exist. One accumulator alone is a chain of dependent
// VADDPS; four independent chains keep the adder busy however narrow
// the tail. The zero skip is gemmRowSSE's.
//
// The caller guarantees what gemmRowSSE's does.
TEXT ·gemmRowAVX(SB), NOSPLIT, $0-88
	MOVQ   a_base+0(FP), SI
	MOVQ   stride+24(FP), R8
	SHLQ   $2, R8                // A step in bytes
	MOVQ   k+32(FP), CX
	MOVQ   b_base+40(FP), DX     // B column of the current strip
	MOVQ   crow_base+64(FP), DI  // C column of the current strip
	MOVQ   crow_len+72(FP), BX   // columns left
	MOVQ   BX, R9
	SHLQ   $2, R9                // B row pitch in bytes
	VXORPS X14, X14, X14

astrip32:
	CMPQ    BX, $32
	JLT     atail
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    SI, R10
	MOVQ    DX, R11
	MOVQ    CX, R12

aloop32:
	VBROADCASTSS (R10), Y4
	VUCOMISS     X14, X4
	JPS          aapply32
	JEQ          anext32

aapply32:
	VMULPS 0(R11), Y4, Y5
	VMULPS 32(R11), Y4, Y6
	VMULPS 64(R11), Y4, Y7
	VMULPS 96(R11), Y4, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3

anext32:
	ADDQ    R8, R10
	ADDQ    R9, R11
	DECQ    R12
	JNZ     aloop32
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $32, BX
	JMP     astrip32

atail:
	TESTQ      BX, BX
	JEQ        adone
	LEAQ       tailmask<>+128(SB), AX
	SHLQ       $2, BX
	SUBQ       BX, AX
	VMOVUPS    0(AX), Y10
	VMOVUPS    32(AX), Y11
	VMOVUPS    64(AX), Y12
	VMOVUPS    96(AX), Y13
	VMASKMOVPS 0(DI), Y10, Y0
	VMASKMOVPS 32(DI), Y11, Y1
	VMASKMOVPS 64(DI), Y12, Y2
	VMASKMOVPS 96(DI), Y13, Y3
	MOVQ       SI, R10
	MOVQ       DX, R11
	MOVQ       CX, R12

alooptail:
	VBROADCASTSS (R10), Y4
	VUCOMISS     X14, X4
	JPS          aapplytail
	JEQ          anexttail

aapplytail:
	VMASKMOVPS 0(R11), Y10, Y5
	VMASKMOVPS 32(R11), Y11, Y6
	VMASKMOVPS 64(R11), Y12, Y7
	VMASKMOVPS 96(R11), Y13, Y8
	VMULPS     Y5, Y4, Y5
	VMULPS     Y6, Y4, Y6
	VMULPS     Y7, Y4, Y7
	VMULPS     Y8, Y4, Y8
	VADDPS     Y5, Y0, Y0
	VADDPS     Y6, Y1, Y1
	VADDPS     Y7, Y2, Y2
	VADDPS     Y8, Y3, Y3

anexttail:
	ADDQ       R8, R10
	ADDQ       R9, R11
	DECQ       R12
	JNZ        alooptail
	VMASKMOVPS Y0, Y10, 0(DI)
	VMASKMOVPS Y1, Y11, 32(DI)
	VMASKMOVPS Y2, Y12, 64(DI)
	VMASKMOVPS Y3, Y13, 96(DI)

adone:
	VZEROUPPER
	RET

// func panelRowAVX(a, b, crow []float32)
//
// panelRowSSE on eight-lane registers, in 32-column strips held in four
// YMM accumulators, over a panel whose row pitch is len(crow) rounded up
// to a multiple of 32: the last strip reads whole rows of the padding
// and VMASKMOVPS limits only its final update of C to the columns that
// exist.
//
// The caller guarantees len(a) > 0 and
// len(b) >= len(a)*((len(crow)+31)&^31).
TEXT ·panelRowAVX(SB), NOSPLIT, $0-72
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DX       // B column of the current strip
	MOVQ crow_base+48(FP), DI    // C column of the current strip
	MOVQ crow_len+56(FP), BX     // columns left
	LEAQ 31(BX), R9
	ANDQ $-32, R9
	SHLQ $2, R9                  // B row pitch in bytes

bstrip32:
	TESTQ  BX, BX
	JLE    bdone
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, R10
	MOVQ   DX, R11
	MOVQ   CX, R12

bloop32:
	VBROADCASTSS (R10), Y4
	VMULPS       0(R11), Y4, Y5
	VMULPS       32(R11), Y4, Y6
	VMULPS       64(R11), Y4, Y7
	VMULPS       96(R11), Y4, Y8
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3
	ADDQ         $4, R10
	ADDQ         R9, R11
	DECQ         R12
	JNZ          bloop32
	CMPQ         BX, $32
	JLT          blast
	VADDPS       0(DI), Y0, Y0
	VADDPS       32(DI), Y1, Y1
	VADDPS       64(DI), Y2, Y2
	VADDPS       96(DI), Y3, Y3
	VMOVUPS      Y0, 0(DI)
	VMOVUPS      Y1, 32(DI)
	VMOVUPS      Y2, 64(DI)
	VMOVUPS      Y3, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, DX
	SUBQ         $32, BX
	JMP          bstrip32

blast:
	LEAQ       tailmask<>+128(SB), AX
	SHLQ       $2, BX
	SUBQ       BX, AX
	VMOVUPS    0(AX), Y10
	VMOVUPS    32(AX), Y11
	VMOVUPS    64(AX), Y12
	VMOVUPS    96(AX), Y13
	VMASKMOVPS 0(DI), Y10, Y5
	VMASKMOVPS 32(DI), Y11, Y6
	VMASKMOVPS 64(DI), Y12, Y7
	VMASKMOVPS 96(DI), Y13, Y8
	VADDPS     Y5, Y0, Y0
	VADDPS     Y6, Y1, Y1
	VADDPS     Y7, Y2, Y2
	VADDPS     Y8, Y3, Y3
	VMASKMOVPS Y0, Y10, 0(DI)
	VMASKMOVPS Y1, Y11, 32(DI)
	VMASKMOVPS Y2, Y12, 64(DI)
	VMASKMOVPS Y3, Y13, 96(DI)

bdone:
	VZEROUPPER
	RET
