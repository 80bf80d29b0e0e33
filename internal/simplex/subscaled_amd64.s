#include "textflag.h"

// func subScaled(dst, src []float64, f float64)
TEXT ·subScaled(SB), NOSPLIT, $0-56
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
