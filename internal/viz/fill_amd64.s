#include "go_asm.h"
#include "textflag.h"

// COLOUR writes table[idx] to the row's pixel at off(R12)(AX*4) when
// idx is in [1, tableSize−1] and that entry is pure (at least 1<<24),
// and jumps to slow otherwise. idx holds a zero-extended int32: the
// out-of-range and NaN conversions, 0x80000000, fail the range check.
// Clobbers R10.
#define COLOUR(idx, off, slow) \
	LEAL -1(idx), R10; \
	CMPL R10, $(const_tableSize-1); \
	JAE  slow; \
	MOVL (R15)(idx*4), R10; \
	CMPL R10, $0x1000000; \
	JB   slow; \
	MOVL R10, off(R12)(AX*4)

// func fillRow(row []byte, t []float64, slow []int32, colX []int32, colW []float64, r0, r1 []float64, table *[tableSize]uint32, omwy, wy, lo, inv float64) int
//
// Registers: AX = px, CX = n, DX = the slow count; SI = &colX[0],
// DI = &colW[0], BX = &t[0], R11 = &r0[0], R14 = &r1[0], R12 = &row[0],
// R13 = &slow[0], R15 = table; R8–R10 scratch. X9–X14 hold 1, omwy,
// wy, lo, inv and tableSize in both lanes; X0–X8 are scratch.
//
// Every lane runs the Go loop's scalar operations in its order, and
// MULPD, ADDPD and SUBPD round each lane as MULSD, ADDSD and SUBSD do,
// so t comes out bit for bit the same.
TEXT ·fillRow(SB), NOSPLIT, $0-216
	// n = min(len(row)/4, len(t), len(slow), len(colX), len(colW)).
	MOVQ    row_base+0(FP), R12
	MOVQ    row_len+8(FP), CX
	SHRQ    $2, CX
	MOVQ    t_base+24(FP), BX
	MOVQ    t_len+32(FP), R8
	CMPQ    R8, CX
	CMOVQLT R8, CX
	MOVQ    slow_base+48(FP), R13
	MOVQ    slow_len+56(FP), R8
	CMPQ    R8, CX
	CMOVQLT R8, CX
	MOVQ    colX_base+72(FP), SI
	MOVQ    colX_len+80(FP), R8
	CMPQ    R8, CX
	CMOVQLT R8, CX
	MOVQ    colW_base+96(FP), DI
	MOVQ    colW_len+104(FP), R8
	CMPQ    R8, CX
	CMOVQLT R8, CX
	MOVQ    r0_base+120(FP), R11
	MOVQ    r1_base+144(FP), R14
	MOVQ    table+168(FP), R15

	MOVQ     $1, R8
	CVTSQ2SD R8, X9
	UNPCKLPD X9, X9
	MOVSD    omwy+176(FP), X10
	UNPCKLPD X10, X10
	MOVSD    wy+184(FP), X11
	UNPCKLPD X11, X11
	MOVSD    lo+192(FP), X12
	UNPCKLPD X12, X12
	MOVSD    inv+200(FP), X13
	UNPCKLPD X13, X13
	MOVQ     $const_tableSize, R8
	CVTSQ2SD R8, X14
	UNPCKLPD X14, X14

	XORQ AX, AX
	XORQ DX, DX
	LEAQ -1(CX), R9
	CMPQ AX, R9
	JGE  tail

pair:
	// The weights: omwx·omwy, wx·omwy, omwx·wy and wx·wy.
	MOVUPD (DI)(AX*8), X0 // wx
	MOVAPD X9, X1
	SUBPD  X0, X1         // omwx = 1 − wx
	MOVAPD X1, X2
	MULPD  X10, X2
	MOVAPD X0, X3
	MULPD  X10, X3
	MULPD  X11, X1
	MULPD  X11, X0

	// The corners: each pixel's r0[x0], r0[x0+1] (and r1's) are
	// adjacent, so one load per row and pixel, then unpack into
	// per-corner pairs.
	MOVLQSX  (SI)(AX*4), R8
	MOVLQSX  4(SI)(AX*4), R9
	MOVUPD   (R11)(R8*8), X4
	MOVUPD   (R11)(R9*8), X5
	MOVAPD   X4, X6
	UNPCKLPD X5, X6 // r0[x0]
	UNPCKHPD X5, X4 // r0[x0+1]
	MOVUPD   (R14)(R8*8), X5
	MOVUPD   (R14)(R9*8), X7
	MOVAPD   X5, X8
	UNPCKLPD X7, X8 // r1[x0]
	UNPCKHPD X7, X5 // r1[x0+1]

	// v = p1 + p2 + p3 + p4, left to right; t = (v − lo)·inv.
	MULPD  X6, X2
	MULPD  X4, X3
	MULPD  X8, X1
	MULPD  X5, X0
	ADDPD  X3, X2
	ADDPD  X1, X2
	ADDPD  X0, X2
	SUBPD  X12, X2
	MULPD  X13, X2
	MOVUPD X2, (BX)(AX*8)

	// Two bucket indices, int32(t·tableSize), into R9 and R8.
	MULPD     X14, X2
	CVTTPD2PL X2, X2
	MOVQ      X2, R8
	MOVL      R8, R9
	SHRQ      $32, R8

	COLOUR(R9, 0, slow0)
lane1:
	COLOUR(R8, 4, slow1)
next:
	ADDQ $2, AX
	LEAQ -1(CX), R9
	CMPQ AX, R9
	JLT  pair

tail:
	// An odd width's last pixel, in scalar operations.
	CMPQ      AX, CX
	JGE       done
	MOVSD     (DI)(AX*8), X0
	MOVAPD    X9, X1
	SUBSD     X0, X1
	MOVAPD    X1, X2
	MULSD     X10, X2
	MOVAPD    X0, X3
	MULSD     X10, X3
	MULSD     X11, X1
	MULSD     X11, X0
	MOVLQSX   (SI)(AX*4), R8
	MULSD     (R11)(R8*8), X2
	MULSD     8(R11)(R8*8), X3
	MULSD     (R14)(R8*8), X1
	MULSD     8(R14)(R8*8), X0
	ADDSD     X3, X2
	ADDSD     X1, X2
	ADDSD     X0, X2
	SUBSD     X12, X2
	MULSD     X13, X2
	MOVSD     X2, (BX)(AX*8)
	MULSD     X14, X2
	CVTTSD2SL X2, R9
	COLOUR(R9, 0, slowTail)

done:
	MOVQ DX, ret+208(FP)
	RET

slow0:
	MOVL AX, (R13)(DX*4)
	INCQ DX
	JMP  lane1

slow1:
	LEAL 1(AX), R10
	MOVL R10, (R13)(DX*4)
	INCQ DX
	JMP  next

slowTail:
	MOVL AX, (R13)(DX*4)
	INCQ DX
	JMP  done
