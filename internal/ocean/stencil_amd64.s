#include "textflag.h"

// Each lane runs the Go loops' scalar operations in their order. Go
// compiles x/2 to a multiply by 0.5, which rounds the same, and MULPD,
// ADDPD and SUBPD round each lane as MULSD, ADDSD and SUBSD do, so the
// outputs come out bit for bit the same.

// MINLEN sets CX to min(CX, the slice length at off(FP)). Clobbers R8.
#define MINLEN(off) \
	MOVQ    off(FP), R8; \
	CMPQ    R8, CX; \
	CMOVQLT R8, CX

// MINLEN2 sets CX to min(CX, the slice length at off(FP) − 2), the cells
// a row read at k and k+2 can update. Clobbers R8.
#define MINLEN2(off) \
	MOVQ    off(FP), R8; \
	SUBQ    $2, R8; \
	CMPQ    R8, CX; \
	CMOVQLT R8, CX

// func momentumRow(nu, nv, h, hup, hdn, u, v []float64, gdtx, gdty, f float64)
//
// Registers: AX = k, CX = n, DX = n−1; DI = &nu[0], SI = &nv[0],
// BX = &h[0], R9 = &hup[0], R10 = &hdn[0], R11 = &u[0], R12 = &v[0];
// R8 scratch. X10–X13 hold gdtx, gdty, f and 0.5 in both lanes; X0–X5
// are scratch.
TEXT ·momentumRow(SB), NOSPLIT, $0-192
	// n = min(len(nu), len(nv), len(h)−2, len(hup), len(hdn), len(u), len(v)).
	MOVQ nu_base+0(FP), DI
	MOVQ nu_len+8(FP), CX
	MOVQ nv_base+24(FP), SI
	MINLEN(nv_len+32)
	MOVQ h_base+48(FP), BX
	MINLEN2(h_len+56)
	MOVQ hup_base+72(FP), R9
	MINLEN(hup_len+80)
	MOVQ hdn_base+96(FP), R10
	MINLEN(hdn_len+104)
	MOVQ u_base+120(FP), R11
	MINLEN(u_len+128)
	MOVQ v_base+144(FP), R12
	MINLEN(v_len+152)

	MOVSD    gdtx+168(FP), X10
	UNPCKLPD X10, X10
	MOVSD    gdty+176(FP), X11
	UNPCKLPD X11, X11
	MOVSD    f+184(FP), X12
	UNPCKLPD X12, X12
	MOVSD    $0.5, X13
	UNPCKLPD X13, X13

	XORQ AX, AX
	LEAQ -1(CX), DX
	CMPQ AX, DX
	JGE  mtail

mpair:
	// nu = u − gdtx·(h[k+2] − h[k])/2 + f·v
	MOVUPD 16(BX)(AX*8), X0
	MOVUPD (BX)(AX*8), X1
	SUBPD  X1, X0
	MULPD  X10, X0
	MULPD  X13, X0
	MOVUPD (R11)(AX*8), X2  // u
	MOVAPD X2, X3
	SUBPD  X0, X3
	MOVUPD (R12)(AX*8), X4  // v
	MOVAPD X4, X5
	MULPD  X12, X5
	ADDPD  X5, X3
	MOVUPD X3, (DI)(AX*8)

	// nv = v − gdty·(hdn − hup)/2 − f·u
	MOVUPD (R10)(AX*8), X0
	MOVUPD (R9)(AX*8), X1
	SUBPD  X1, X0
	MULPD  X11, X0
	MULPD  X13, X0
	SUBPD  X0, X4
	MULPD  X12, X2
	SUBPD  X2, X4
	MOVUPD X4, (SI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, DX
	JLT    mpair

mtail:
	// An odd count's last cell, in scalar operations.
	CMPQ   AX, CX
	JGE    mdone
	MOVSD  16(BX)(AX*8), X0
	SUBSD  (BX)(AX*8), X0
	MULSD  X10, X0
	MULSD  X13, X0
	MOVSD  (R11)(AX*8), X2
	MOVAPD X2, X3
	SUBSD  X0, X3
	MOVSD  (R12)(AX*8), X4
	MOVAPD X4, X5
	MULSD  X12, X5
	ADDSD  X5, X3
	MOVSD  X3, (DI)(AX*8)
	MOVSD  (R10)(AX*8), X0
	SUBSD  (R9)(AX*8), X0
	MULSD  X11, X0
	MULSD  X13, X0
	SUBSD  X0, X4
	MULSD  X12, X2
	SUBSD  X2, X4
	MOVSD  X4, (SI)(AX*8)

mdone:
	RET

// func continuityRow(nh, h, u, vup, vdn []float64, hdtx, hdty float64)
//
// Registers: AX = k, CX = n, DX = n−1; DI = &nh[0], BX = &h[0],
// R11 = &u[0], R9 = &vup[0], R10 = &vdn[0]; R8 scratch. X10, X11 and
// X13 hold hdtx, hdty and 0.5 in both lanes; X0–X3 are scratch.
TEXT ·continuityRow(SB), NOSPLIT, $0-136
	// n = min(len(nh), len(h), len(u)−2, len(vup), len(vdn)).
	MOVQ nh_base+0(FP), DI
	MOVQ nh_len+8(FP), CX
	MOVQ h_base+24(FP), BX
	MINLEN(h_len+32)
	MOVQ u_base+48(FP), R11
	MINLEN2(u_len+56)
	MOVQ vup_base+72(FP), R9
	MINLEN(vup_len+80)
	MOVQ vdn_base+96(FP), R10
	MINLEN(vdn_len+104)

	MOVSD    hdtx+120(FP), X10
	UNPCKLPD X10, X10
	MOVSD    hdty+128(FP), X11
	UNPCKLPD X11, X11
	MOVSD    $0.5, X13
	UNPCKLPD X13, X13

	XORQ AX, AX
	LEAQ -1(CX), DX
	CMPQ AX, DX
	JGE  ctail

cpair:
	// nh = h − hdtx·(u[k+2] − u[k])/2 − hdty·(vdn − vup)/2
	MOVUPD 16(R11)(AX*8), X0
	MOVUPD (R11)(AX*8), X1
	SUBPD  X1, X0
	MULPD  X10, X0
	MULPD  X13, X0
	MOVUPD (BX)(AX*8), X2
	SUBPD  X0, X2
	MOVUPD (R10)(AX*8), X0
	MOVUPD (R9)(AX*8), X1
	SUBPD  X1, X0
	MULPD  X11, X0
	MULPD  X13, X0
	SUBPD  X0, X2
	MOVUPD X2, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, DX
	JLT    cpair

ctail:
	// An odd count's last cell, in scalar operations.
	CMPQ  AX, CX
	JGE   cdone
	MOVSD 16(R11)(AX*8), X0
	SUBSD (R11)(AX*8), X0
	MULSD X10, X0
	MULSD X13, X0
	MOVSD (BX)(AX*8), X2
	SUBSD X0, X2
	MOVSD (R10)(AX*8), X0
	SUBSD (R9)(AX*8), X0
	MULSD X11, X0
	MULSD X13, X0
	SUBSD X0, X2
	MOVSD X2, (DI)(AX*8)

cdone:
	RET
