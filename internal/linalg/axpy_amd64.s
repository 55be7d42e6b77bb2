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

// func axpyRowsFMA(a, x []float64, stride int, y []float64)
//
// y[j] = fma(a[b−1], x[(b−1)·stride+j], … fma(a[0], x[j], y[j])) for
// j < len(y), b = len(a): each element keeps its b fused multiply-adds in
// row order, in a register. A pass walks the b rows with R11 counting rows
// and BX stepping one row (stride·8 bytes) at a time. Each chain of b
// dependent multiply-adds is latency-bound, so every pass runs several
// independent chains: a main pass covers 32 lanes as eight 4-wide chains.
// The elements past the last multiple of 32 go first, so their chains
// overlap the main passes: the last len mod 4 as one to three scalar
// chains in one pass, the 4-wide groups before them as one to three
// chains in one pass, then sixteen lanes where there are that many.
TEXT ·axpyRowsFMA(SB), NOSPLIT, $0-80
	MOVQ  a_base+0(FP), R8
	MOVQ  a_len+8(FP), R9
	MOVQ  x_base+24(FP), SI
	MOVQ  stride+48(FP), R10
	SHLQ  $3, R10
	MOVQ  y_base+56(FP), DI
	MOVQ  y_len+64(FP), CX
	TESTQ R9, R9
	JZ    rdone

	// Scalars: AX = len &^ 3, DX = len & 3 of them.
	MOVQ CX, AX
	ANDQ $-4, AX
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   rquads
	LEAQ (DI)(AX*8), R12
	LEAQ (SI)(AX*8), BX
	XORQ R11, R11
	CMPQ DX, $2
	JLT  rs1
	JEQ  rs2
	VMOVSD (R12), X0
	VMOVSD 8(R12), X1
	VMOVSD 16(R12), X2

rrows3:
	VMOVSD      (R8)(R11*8), X8
	VFMADD231SD (BX), X8, X0
	VFMADD231SD 8(BX), X8, X1
	VFMADD231SD 16(BX), X8, X2
	ADDQ        R10, BX
	INCQ        R11
	CMPQ        R11, R9
	JLT         rrows3
	VMOVSD      X0, (R12)
	VMOVSD      X1, 8(R12)
	VMOVSD      X2, 16(R12)
	JMP         rquads

rs2:
	VMOVSD (R12), X0
	VMOVSD 8(R12), X1

rrows2:
	VMOVSD      (R8)(R11*8), X8
	VFMADD231SD (BX), X8, X0
	VFMADD231SD 8(BX), X8, X1
	ADDQ        R10, BX
	INCQ        R11
	CMPQ        R11, R9
	JLT         rrows2
	VMOVSD      X0, (R12)
	VMOVSD      X1, 8(R12)
	JMP         rquads

rs1:
	VMOVSD (R12), X0

rrows1:
	VMOVSD      (R8)(R11*8), X8
	VFMADD231SD (BX), X8, X0
	ADDQ        R10, BX
	INCQ        R11
	CMPQ        R11, R9
	JLT         rrows1
	VMOVSD      X0, (R12)

rquads:
	// 4-wide groups: from AX = len &^ 15, DX = (len & 12)/4 of them.
	MOVQ CX, AX
	ANDQ $-16, AX
	MOVQ CX, DX
	ANDQ $12, DX
	JZ   rsixteen
	LEAQ (DI)(AX*8), R12
	LEAQ (SI)(AX*8), BX
	XORQ R11, R11
	CMPQ DX, $8
	JLT  rq1
	JEQ  rq2
	VMOVUPD (R12), Y0
	VMOVUPD 32(R12), Y1
	VMOVUPD 64(R12), Y2

rrowq3:
	VBROADCASTSD (R8)(R11*8), Y8
	VFMADD231PD  (BX), Y8, Y0
	VFMADD231PD  32(BX), Y8, Y1
	VFMADD231PD  64(BX), Y8, Y2
	ADDQ         R10, BX
	INCQ         R11
	CMPQ         R11, R9
	JLT          rrowq3
	VMOVUPD      Y0, (R12)
	VMOVUPD      Y1, 32(R12)
	VMOVUPD      Y2, 64(R12)
	JMP          rsixteen

rq2:
	VMOVUPD (R12), Y0
	VMOVUPD 32(R12), Y1

rrowq2:
	VBROADCASTSD (R8)(R11*8), Y8
	VFMADD231PD  (BX), Y8, Y0
	VFMADD231PD  32(BX), Y8, Y1
	ADDQ         R10, BX
	INCQ         R11
	CMPQ         R11, R9
	JLT          rrowq2
	VMOVUPD      Y0, (R12)
	VMOVUPD      Y1, 32(R12)
	JMP          rsixteen

rq1:
	VMOVUPD (R12), Y0

rrowq1:
	VBROADCASTSD (R8)(R11*8), Y8
	VFMADD231PD  (BX), Y8, Y0
	ADDQ         R10, BX
	INCQ         R11
	CMPQ         R11, R9
	JLT          rrowq1
	VMOVUPD      Y0, (R12)

rsixteen:
	// Sixteen lanes from AX = len &^ 31, when bit 4 of len is set.
	TESTQ   $16, CX
	JZ      rmain
	MOVQ    CX, AX
	ANDQ    $-32, AX
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD 64(DI)(AX*8), Y2
	VMOVUPD 96(DI)(AX*8), Y3
	LEAQ    (SI)(AX*8), BX
	XORQ    R11, R11

rrow16:
	VBROADCASTSD (R8)(R11*8), Y8
	VFMADD231PD  (BX), Y8, Y0
	VFMADD231PD  32(BX), Y8, Y1
	VFMADD231PD  64(BX), Y8, Y2
	VFMADD231PD  96(BX), Y8, Y3
	ADDQ         R10, BX
	INCQ         R11
	CMPQ         R11, R9
	JLT          rrow16
	VMOVUPD      Y0, (DI)(AX*8)
	VMOVUPD      Y1, 32(DI)(AX*8)
	VMOVUPD      Y2, 64(DI)(AX*8)
	VMOVUPD      Y3, 96(DI)(AX*8)

rmain:
	MOVQ CX, DX
	ANDQ $-32, DX
	JZ   rdone
	XORQ AX, AX

rthirtytwo:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD 64(DI)(AX*8), Y2
	VMOVUPD 96(DI)(AX*8), Y3
	VMOVUPD 128(DI)(AX*8), Y4
	VMOVUPD 160(DI)(AX*8), Y5
	VMOVUPD 192(DI)(AX*8), Y6
	VMOVUPD 224(DI)(AX*8), Y7
	LEAQ    (SI)(AX*8), BX
	XORQ    R11, R11

rrow32:
	VBROADCASTSD (R8)(R11*8), Y8
	VFMADD231PD  (BX), Y8, Y0
	VFMADD231PD  32(BX), Y8, Y1
	VFMADD231PD  64(BX), Y8, Y2
	VFMADD231PD  96(BX), Y8, Y3
	VFMADD231PD  128(BX), Y8, Y4
	VFMADD231PD  160(BX), Y8, Y5
	VFMADD231PD  192(BX), Y8, Y6
	VFMADD231PD  224(BX), Y8, Y7
	ADDQ         R10, BX
	INCQ         R11
	CMPQ         R11, R9
	JLT          rrow32
	VMOVUPD      Y0, (DI)(AX*8)
	VMOVUPD      Y1, 32(DI)(AX*8)
	VMOVUPD      Y2, 64(DI)(AX*8)
	VMOVUPD      Y3, 96(DI)(AX*8)
	VMOVUPD      Y4, 128(DI)(AX*8)
	VMOVUPD      Y5, 160(DI)(AX*8)
	VMOVUPD      Y6, 192(DI)(AX*8)
	VMOVUPD      Y7, 224(DI)(AX*8)
	ADDQ         $32, AX
	CMPQ         AX, DX
	JLT          rthirtytwo

rdone:
	VZEROUPPER
	RET

// func subTrackAVX(m float64, x, y []float64) (mx float64, arg int)
//
// y[j] = y[j] − m·x[j] for j < len(x), the product rounded before the
// difference; the caller makes len(y) equal. A first pass updates y and
// keeps per-lane maxima of |y[j]| with VMAXPD, whose second source wins
// when the first is NaN, so a NaN never enters a maximum. After the
// lanes and the scalar tail are reduced to mx, a second pass returns the
// first j with |y[j]| == mx; when mx is 0 no element exceeds 0 and arg is
// −1.
TEXT ·subTrackAVX(SB), NOSPLIT, $0-72
	VBROADCASTSD m+0(FP), Y15
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	VPCMPEQQ     Y14, Y14, Y14
	VPSRLQ       $1, Y14, Y14      // |·| mask 0x7fff…f in every lane
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           squad

soctet:
	VMULPD  (SI)(AX*8), Y15, Y2
	VMULPD  32(SI)(AX*8), Y15, Y3
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VSUBPD  Y2, Y4, Y4
	VSUBPD  Y3, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VANDPD  Y14, Y4, Y4
	VANDPD  Y14, Y5, Y5
	VMAXPD  Y0, Y4, Y0
	VMAXPD  Y1, Y5, Y1
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     soctet

squad:
	TESTQ   $4, CX
	JZ      sreduce
	VMULPD  (SI)(AX*8), Y15, Y2
	VMOVUPD (DI)(AX*8), Y4
	VSUBPD  Y2, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	VANDPD  Y14, Y4, Y4
	VMAXPD  Y0, Y4, Y0
	ADDQ    $4, AX

sreduce:
	VMAXPD       Y0, Y1, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X0, X1, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X0, X1, X0
	CMPQ         AX, CX
	JGE          sfind

stail:
	VMULSD (SI)(AX*8), X15, X2
	VMOVSD (DI)(AX*8), X4
	VSUBSD X2, X4, X4
	VMOVSD X4, (DI)(AX*8)
	VANDPD X14, X4, X4
	VMAXSD X0, X4, X0
	INCQ   AX
	CMPQ   AX, CX
	JLT    stail

sfind:
	VMOVSD  X0, mx+56(FP)
	MOVQ    $-1, R11
	VXORPD  X1, X1, X1
	VUCOMISD X1, X0
	JBE     sret                   // mx ≤ 0: nothing exceeds 0
	VBROADCASTSD X0, Y0
	XORQ    AX, AX
	MOVQ    CX, DX
	ANDQ    $-4, DX
	JZ      sfindone

sfind4:
	VMOVUPD   (DI)(AX*8), Y4
	VANDPD    Y14, Y4, Y4
	VCMPPD    $0, Y0, Y4, Y5
	VMOVMSKPD Y5, BX
	TESTQ     BX, BX
	JNZ       sfound4
	ADDQ      $4, AX
	CMPQ      AX, DX
	JLT       sfind4

sfindone:
	VMOVSD   (DI)(AX*8), X4
	VANDPD   X14, X4, X4
	VUCOMISD X0, X4
	JNE      snext
	JPC      sfound1               // equal and ordered: not a NaN
snext:
	INCQ     AX
	JMP      sfindone

sfound4:
	BSFQ BX, BX
	ADDQ BX, AX

sfound1:
	MOVQ AX, R11

sret:
	MOVQ R11, arg+64(FP)
	VZEROUPPER
	RET
