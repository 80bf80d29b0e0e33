#include "textflag.h"

// func subScaledSSE2(dst, src []float64, f float64)
TEXT ·subScaledSSE2(SB), NOSPLIT, $0-56
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  src_base+24(FP), SI
	MOVQ  src_len+32(FP), AX
	CMPQ  AX, CX
	CMOVQLT AX, CX              // CX = min(len(dst), len(src))
	MOVSD f+48(FP), X0
	UNPCKLPD X0, X0             // f in both lanes
	MOVQ  CX, BX
	SHRQ  $3, BX                // blocks of 8 elements
	JZ    tail

loop8:
	MOVUPD 0(SI), X1
	MOVUPD 16(SI), X2
	MOVUPD 32(SI), X3
	MOVUPD 48(SI), X4
	MULPD  X0, X1
	MULPD  X0, X2
	MULPD  X0, X3
	MULPD  X0, X4
	MOVUPD 0(DI), X5
	MOVUPD 16(DI), X6
	MOVUPD 32(DI), X7
	MOVUPD 48(DI), X8
	SUBPD  X1, X5
	SUBPD  X2, X6
	SUBPD  X3, X7
	SUBPD  X4, X8
	MOVUPD X5, 0(DI)
	MOVUPD X6, 16(DI)
	MOVUPD X7, 32(DI)
	MOVUPD X8, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	DECQ   BX
	JNZ    loop8

tail:
	ANDQ  $7, CX
	JZ    done

loop1:
	MOVSD (SI), X1
	MULSD X0, X1
	MOVSD (DI), X2
	SUBSD X1, X2
	MOVSD X2, (DI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   loop1

done:
	RET

// func subScaledAVX2(dst, src []float64, f float64)
TEXT ·subScaledAVX2(SB), NOSPLIT, $0-56
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  src_base+24(FP), SI
	MOVQ  src_len+32(FP), AX
	CMPQ  AX, CX
	CMOVQLT AX, CX              // CX = min(len(dst), len(src))
	VBROADCASTSD f+48(FP), Y0   // f in all four lanes
	MOVQ  CX, BX
	SHRQ  $4, BX                // blocks of 16 elements
	JZ    tail4

loop16:
	VMULPD  0(SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VMULPD  64(SI), Y0, Y3
	VMULPD  96(SI), Y0, Y4
	VMOVUPD 0(DI), Y5
	VMOVUPD 32(DI), Y6
	VMOVUPD 64(DI), Y7
	VMOVUPD 96(DI), Y8
	VSUBPD  Y1, Y5, Y5          // Y5 = dst - f*src
	VSUBPD  Y2, Y6, Y6
	VSUBPD  Y3, Y7, Y7
	VSUBPD  Y4, Y8, Y8
	VMOVUPD Y5, 0(DI)
	VMOVUPD Y6, 32(DI)
	VMOVUPD Y7, 64(DI)
	VMOVUPD Y8, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	DECQ    BX
	JNZ     loop16

tail4:
	MOVQ  CX, BX
	ANDQ  $15, BX
	SHRQ  $2, BX                // blocks of 4 elements
	JZ    tail1

loop4:
	VMULPD  0(SI), Y0, Y1
	VMOVUPD 0(DI), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    BX
	JNZ     loop4

tail1:
	ANDQ  $3, CX
	JZ    done

loop1:
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VMOVSD (DI), X2
	VSUBSD X1, X2, X2
	VMOVSD X2, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    loop1

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
