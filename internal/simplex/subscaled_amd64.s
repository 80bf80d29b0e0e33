#include "textflag.h"

// Both kernels take a dst no longer than any source and one factor per
// source (subScaledMultiOn cuts them so). They walk dst in blocks: load
// the block once, take every source in slot order, each as a broadcast
// factor times the source's block, rounded, then subtracted, and store
// the block once.
//
// Registers: DI dst, CX len(dst), R8 the source slice headers (24 bytes
// each), R10 the factors, R11 the source count, AX the block's byte
// offset, BX blocks left; in a block R12 and R13 walk the headers and
// factors, DX counts sources down and SI is the current source.

// func subScaledMultiAVX2(dst []float64, srcs [][]float64, fs []float64)
TEXT ·subScaledMultiAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ srcs_base+24(FP), R8
	MOVQ fs_base+48(FP), R10
	MOVQ fs_len+56(FP), R11
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $4, BX                 // blocks of 16 elements
	JZ   tail4

loop16:
	VMOVUPD 0(DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	VMOVUPD 64(DI)(AX*1), Y2
	VMOVUPD 96(DI)(AX*1), Y3
	MOVQ    R8, R12
	MOVQ    R10, R13
	MOVQ    R11, DX

src16:
	MOVQ         (R12), SI
	VBROADCASTSD (R13), Y8
	VMULPD       0(SI)(AX*1), Y8, Y4
	VMULPD       32(SI)(AX*1), Y8, Y5
	VMULPD       64(SI)(AX*1), Y8, Y6
	VMULPD       96(SI)(AX*1), Y8, Y7
	VSUBPD       Y4, Y0, Y0     // Y0 = dst - f*src
	VSUBPD       Y5, Y1, Y1
	VSUBPD       Y6, Y2, Y2
	VSUBPD       Y7, Y3, Y3
	ADDQ         $24, R12
	ADDQ         $8, R13
	DECQ         DX
	JNZ          src16
	VMOVUPD      Y0, 0(DI)(AX*1)
	VMOVUPD      Y1, 32(DI)(AX*1)
	VMOVUPD      Y2, 64(DI)(AX*1)
	VMOVUPD      Y3, 96(DI)(AX*1)
	ADDQ         $128, AX
	DECQ         BX
	JNZ          loop16

tail4:
	MOVQ CX, BX
	ANDQ $15, BX
	SHRQ $2, BX                 // blocks of 4 elements
	JZ   tail1

loop4:
	VMOVUPD 0(DI)(AX*1), Y0
	MOVQ    R8, R12
	MOVQ    R10, R13
	MOVQ    R11, DX

src4:
	MOVQ         (R12), SI
	VBROADCASTSD (R13), Y8
	VMULPD       0(SI)(AX*1), Y8, Y4
	VSUBPD       Y4, Y0, Y0
	ADDQ         $24, R12
	ADDQ         $8, R13
	DECQ         DX
	JNZ          src4
	VMOVUPD      Y0, 0(DI)(AX*1)
	ADDQ         $32, AX
	DECQ         BX
	JNZ          loop4

tail1:
	ANDQ $3, CX                 // at most 3 elements, one at a time
	JZ   done

loop1:
	VMOVSD (DI)(AX*1), X0
	MOVQ   R8, R12
	MOVQ   R10, R13
	MOVQ   R11, DX

src1:
	MOVQ   (R12), SI
	VMOVSD (SI)(AX*1), X4
	VMULSD (R13), X4, X4
	VSUBSD X4, X0, X0
	ADDQ   $24, R12
	ADDQ   $8, R13
	DECQ   DX
	JNZ    src1
	VMOVSD X0, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   CX
	JNZ    loop1

done:
	VZEROUPPER
	RET

// func subScaledMultiAVX512(dst []float64, srcs [][]float64, fs []float64)
TEXT ·subScaledMultiAVX512(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ srcs_base+24(FP), R8
	MOVQ fs_base+48(FP), R10
	MOVQ fs_len+56(FP), R11
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $5, BX                 // blocks of 32 elements
	JZ   tail8

loop32:
	VMOVUPD 0(DI)(AX*1), Z0
	VMOVUPD 64(DI)(AX*1), Z1
	VMOVUPD 128(DI)(AX*1), Z2
	VMOVUPD 192(DI)(AX*1), Z3
	MOVQ    R8, R12
	MOVQ    R10, R13
	MOVQ    R11, DX

src32:
	MOVQ         (R12), SI
	VBROADCASTSD (R13), Z8
	VMULPD       0(SI)(AX*1), Z8, Z4
	VMULPD       64(SI)(AX*1), Z8, Z5
	VMULPD       128(SI)(AX*1), Z8, Z6
	VMULPD       192(SI)(AX*1), Z8, Z7
	VSUBPD       Z4, Z0, Z0     // Z0 = dst - f*src
	VSUBPD       Z5, Z1, Z1
	VSUBPD       Z6, Z2, Z2
	VSUBPD       Z7, Z3, Z3
	ADDQ         $24, R12
	ADDQ         $8, R13
	DECQ         DX
	JNZ          src32
	VMOVUPD      Z0, 0(DI)(AX*1)
	VMOVUPD      Z1, 64(DI)(AX*1)
	VMOVUPD      Z2, 128(DI)(AX*1)
	VMOVUPD      Z3, 192(DI)(AX*1)
	ADDQ         $256, AX
	DECQ         BX
	JNZ          loop32

tail8:
	MOVQ CX, BX
	ANDQ $31, BX
	SHRQ $3, BX                 // blocks of 8 elements
	JZ   tailmask

loop8:
	VMOVUPD 0(DI)(AX*1), Z0
	MOVQ    R8, R12
	MOVQ    R10, R13
	MOVQ    R11, DX

src8:
	MOVQ         (R12), SI
	VBROADCASTSD (R13), Z8
	VMULPD       0(SI)(AX*1), Z8, Z4
	VSUBPD       Z4, Z0, Z0
	ADDQ         $24, R12
	ADDQ         $8, R13
	DECQ         DX
	JNZ          src8
	VMOVUPD      Z0, 0(DI)(AX*1)
	ADDQ         $64, AX
	DECQ         BX
	JNZ          loop8

tailmask:
	ANDQ $7, CX                 // at most 7 elements, in one masked block
	JZ   done
	MOVQ $1, R9
	SHLQ CX, R9
	DECQ R9
	KMOVW R9, K1                // K1 = the low CX lanes
	VMOVUPD.Z 0(DI)(AX*1), K1, Z0
	MOVQ    R8, R12
	MOVQ    R10, R13
	MOVQ    R11, DX

srcmask:
	MOVQ         (R12), SI
	VBROADCASTSD (R13), Z8
	VMOVUPD.Z    0(SI)(AX*1), K1, Z4 // masked lanes are neither read nor stored
	VMULPD       Z4, Z8, Z4
	VSUBPD       Z4, Z0, Z0
	ADDQ         $24, R12
	ADDQ         $8, R13
	DECQ         DX
	JNZ          srcmask
	VMOVUPD      Z0, K1, 0(DI)(AX*1)

done:
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
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
