#include "textflag.h"

// AVX2 bodies of the macTile leaf (see mactile.go for the contract). A tile
// position k is eight float64s: lanes 0-3 in one ymm, 4-7 in another. Every
// term is a VMULPD followed by a VADDPD into the lane's accumulator — two
// roundings, the scalar loop's — never an FMA, and k only ascends.

// func macTile1AVX2(acc *[8]float64, x, tile *float64, cols int)
//
// acc[jj] = Σ_k x[k]·tile[k*8+jj] for one row of x; cols >= 1.
TEXT ·macTile1AVX2(SB), NOSPLIT, $0-32
	MOVQ   acc+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   tile+16(FP), DX
	MOVQ   cols+24(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

loop1:
	VBROADCASTSD (SI), Y2
	VMULPD       (DX), Y2, Y3
	VMULPD       32(DX), Y2, Y4
	VADDPD       Y3, Y0, Y0
	VADDPD       Y4, Y1, Y1
	ADDQ         $8, SI
	ADDQ         $64, DX
	DECQ         CX
	JNZ          loop1

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func macTile4AVX2(acc *[32]float64, x, tile *float64, cols int)
//
// acc[r*8+jj] = Σ_k x[r*cols+k]·tile[k*8+jj] for four consecutive rows of
// x (row stride cols): each tile load is shared by the four rows' eight
// accumulator chains; cols >= 1.
TEXT ·macTile4AVX2(SB), NOSPLIT, $0-32
	MOVQ   acc+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   tile+16(FP), DX
	MOVQ   cols+24(FP), CX
	LEAQ   (SI)(CX*8), R8
	LEAQ   (R8)(CX*8), R9
	LEAQ   (R9)(CX*8), R10
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

loop4:
	VMOVUPD      (DX), Y8
	VMOVUPD      32(DX), Y9
	VBROADCASTSD (SI)(AX*8), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (R8)(AX*8), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (R9)(AX*8), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (R10)(AX*8), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7
	ADDQ         $64, DX
	INCQ         AX
	CMPQ         AX, CX
	JLT          loop4

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
//
// Reads XCR0, the extended states the OS saves on a context switch.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
