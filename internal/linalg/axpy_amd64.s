#include "textflag.h"

// func axpyFMA(a float64, x, y []float64)
//
// y[i] = fma(a, x[i], y[i]) for i < len(x); the caller makes len(y) equal.
// In Go's operand order, VFMADD231PD X, A, Y computes Y += A·X. The 8-lane
// loop covers len &^ 7 elements, the 4-lane step bit 2 of len and the
// scalar tail len & 3.
TEXT ·axpyFMA(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           quad

octet:
	VMOVUPD     (DI)(AX*8), Y1
	VMOVUPD     32(DI)(AX*8), Y2
	VFMADD231PD (SI)(AX*8), Y0, Y1
	VFMADD231PD 32(SI)(AX*8), Y0, Y2
	VMOVUPD     Y1, (DI)(AX*8)
	VMOVUPD     Y2, 32(DI)(AX*8)
	ADDQ        $8, AX
	CMPQ        AX, DX
	JLT         octet

quad:
	TESTQ       $4, CX
	JZ          scalar
	VMOVUPD     (DI)(AX*8), Y1
	VFMADD231PD (SI)(AX*8), Y0, Y1
	VMOVUPD     Y1, (DI)(AX*8)
	ADDQ        $4, AX

scalar:
	ANDQ        $3, CX
	JZ          done

tail:
	VMOVSD      (DI)(AX*8), X1
	VFMADD231SD (SI)(AX*8), X0, X1
	VMOVSD      X1, (DI)(AX*8)
	INCQ        AX
	DECQ        CX
	JNZ         tail

done:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
