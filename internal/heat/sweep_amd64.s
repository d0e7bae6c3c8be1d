#include "textflag.h"

// func sweepRow(o, c, up, dn []float64, rx, ry float64)
//
// Registers: AX = k, CX = n, DX = n−1; DI = &o[0], SI = &c[0],
// R9 = &up[0], R10 = &dn[0]; R8 scratch. X13 and X14 hold ry and rx in
// both lanes; X0–X5 are scratch.
//
// Each lane runs the Go loop's scalar operations in its order: 2·cc
// as cc + cc (which is how Go compiles it), cl − 2·cc + cr, the
// product with rx, cc plus that, then the y term likewise. MULPD,
// ADDPD and SUBPD round each lane as MULSD, ADDSD and SUBSD do, so o
// comes out bit for bit the same.
TEXT ·sweepRow(SB), NOSPLIT, $0-112
	// n = min(len(o), len(c)−2, len(up), len(dn)).
	MOVQ    o_base+0(FP), DI
	MOVQ    o_len+8(FP), CX
	MOVQ    c_base+24(FP), SI
	MOVQ    c_len+32(FP), R8
	SUBQ    $2, R8
	CMPQ    R8, CX
	CMOVQLT R8, CX
	MOVQ    up_base+48(FP), R9
	MOVQ    up_len+56(FP), R8
	CMPQ    R8, CX
	CMOVQLT R8, CX
	MOVQ    dn_base+72(FP), R10
	MOVQ    dn_len+80(FP), R8
	CMPQ    R8, CX
	CMOVQLT R8, CX

	MOVSD    rx+96(FP), X14
	UNPCKLPD X14, X14
	MOVSD    ry+104(FP), X13
	UNPCKLPD X13, X13

	XORQ AX, AX
	LEAQ -1(CX), DX
	CMPQ AX, DX
	JGE  tail

pair:
	MOVUPD (SI)(AX*8), X0   // cl = c[k], c[k+1]
	MOVUPD 8(SI)(AX*8), X1  // cc = c[k+1], c[k+2]
	MOVUPD 16(SI)(AX*8), X2 // cr = c[k+2], c[k+3]
	MOVAPD X1, X3
	ADDPD  X1, X3           // 2·cc
	SUBPD  X3, X0
	ADDPD  X2, X0
	MULPD  X14, X0          // rx·(cl − 2·cc + cr)
	ADDPD  X0, X1
	MOVUPD (R9)(AX*8), X4
	SUBPD  X3, X4
	MOVUPD (R10)(AX*8), X5
	ADDPD  X5, X4
	MULPD  X13, X4          // ry·(up − 2·cc + dn)
	ADDPD  X4, X1
	MOVUPD X1, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, DX
	JLT    pair

tail:
	// An odd count's last cell, in scalar operations.
	CMPQ   AX, CX
	JGE    done
	MOVSD  (SI)(AX*8), X0
	MOVSD  8(SI)(AX*8), X1
	MOVAPD X1, X3
	ADDSD  X1, X3
	SUBSD  X3, X0
	ADDSD  16(SI)(AX*8), X0
	MULSD  X14, X0
	ADDSD  X0, X1
	MOVSD  (R9)(AX*8), X4
	SUBSD  X3, X4
	ADDSD  (R10)(AX*8), X4
	MULSD  X13, X4
	ADDSD  X4, X1
	MOVSD  X1, (DI)(AX*8)

done:
	RET
