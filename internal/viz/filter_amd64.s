#include "textflag.h"

// SUM adds Σ|int8(r)| over r's sixteen byte lanes to the two 64-bit
// lanes of acc. With X14 holding 0x80 in every byte, r XOR 0x80 is
// int8(r)+128 as an unsigned byte, and PSADBW sums each half's
// |(int8(r)+128) − 128|. Clobbers r.
#define SUM(r, acc) \
	PXOR   X14, r; \
	PSADBW X14, r; \
	PADDQ  r, acc

// FOLD adds acc's two 64-bit lanes to the int at off(R11). Clobbers X0
// and R8.
#define FOLD(acc, off) \
	PSHUFD $0x4e, acc, X0; \
	PADDQ  X0, acc; \
	MOVQ   acc, R8; \
	ADDQ   R8, off(R11)

// func sumWords(cd, pd, pth []byte, bpp int, sums *[5]int) int
//
// Registers: SI, R9 = &cd[0], &cd[-bpp]; DX, R10 = &pd[0], &pd[-bpp];
// DI = &pth[0]; AX = i; CX = the last i a block may start at.
// X0–X3 = x, a, b, c; X4–X7 scratch; X8–X12 the None, Sub, Up,
// Average and Paeth sums; X13 = 0, X14 = 0x80, X15 = 0x01 in every
// byte.
TEXT ·sumWords(SB), NOSPLIT, $0-96
	MOVQ cd_base+0(FP), SI
	MOVQ cd_len+8(FP), CX
	MOVQ pd_base+24(FP), DX
	MOVQ pd_len+32(FP), R8
	MOVQ pth_base+48(FP), DI
	MOVQ pth_len+56(FP), R9
	MOVQ bpp+72(FP), BX
	MOVQ sums+80(FP), R11

	// n = min(len(cd), len(pd), len(pth)); blocks start at bpp,
	// bpp+16, … up to n−16.
	CMPQ    R8, CX
	CMOVQLT R8, CX
	CMPQ    R9, CX
	CMOVQLT R9, CX
	SUBQ    $16, CX
	MOVQ    BX, AX
	TESTQ   BX, BX
	JS      done
	CMPQ    AX, CX
	JGT     done

	MOVQ SI, R9
	SUBQ BX, R9
	MOVQ DX, R10
	SUBQ BX, R10

	PXOR    X8, X8
	PXOR    X9, X9
	PXOR    X10, X10
	PXOR    X11, X11
	PXOR    X12, X12
	PXOR    X13, X13
	PCMPEQB X14, X14
	MOVO    X13, X15
	PSUBB   X14, X15 // 0 − 0xff = 0x01
	MOVO    X15, X14
	PSLLW   $7, X14  // 0x0101 << 7 = 0x8080

loop:
	MOVOU (SI)(AX*1), X0  // x
	MOVOU (R9)(AX*1), X1  // a, the byte bpp to the left
	MOVOU (DX)(AX*1), X2  // b, the byte above
	MOVOU (R10)(AX*1), X3 // c, above a

	// None: x.
	MOVO X0, X4
	SUM(X4, X8)

	// Sub: x − a.
	MOVO  X0, X4
	PSUBB X1, X4
	SUM(X4, X9)

	// Up: x − b.
	MOVO  X0, X4
	PSUBB X2, X4
	SUM(X4, X10)

	// Average: x − ⌊(a+b)/2⌋. PAVGB rounds up, so take back the
	// carried half, (a XOR b) AND 1.
	MOVO  X1, X4
	PAVGB X2, X4
	MOVO  X1, X5
	PXOR  X2, X5
	PAND  X15, X5
	PSUBB X5, X4
	MOVO  X0, X5
	PSUBB X4, X5
	SUM(X5, X11)

	// Paeth, in unsigned byte lanes as in sumWordsSWAR: pa = |b−c|,
	// pb = |a−c|, and pc = |pa−pb| where b−c and a−c have opposite
	// signs, else 255.
	MOVO    X2, X4
	PSUBUSB X3, X4 // b −sat c
	MOVO    X3, X5
	PSUBUSB X2, X5 // c −sat b
	POR     X5, X4 // X4 = pa
	PCMPEQB X13, X5 // X5 = 0xff where b ≥ c
	MOVO    X1, X6
	PSUBUSB X3, X6 // a −sat c
	MOVO    X3, X7
	PSUBUSB X1, X7 // c −sat a
	POR     X7, X6 // X6 = pb
	PCMPEQB X13, X7 // X7 = 0xff where a ≥ c
	PCMPEQB X7, X5  // X5 = 0xff where the signs agree
	MOVO    X4, X7
	PSUBUSB X6, X7  // X7 = pa −sat pb
	PSUBUSB X4, X6  // X6 = pb −sat pa
	POR     X7, X6  // X6 = |pa−pb|
	POR     X5, X6  // X6 = pc

	// lodepng's order: a, then b where pb < pa, then c where pc is
	// below the better of the two.
	PSUBB   X7, X4  // X4 = pa − (pa −sat pb) = min(pa, pb)
	PCMPEQB X13, X7 // X7 = 0xff where pa ≤ pb
	MOVO    X1, X5
	PXOR    X2, X5
	PAND    X7, X5
	PXOR    X2, X5  // X5 = a where pa ≤ pb, else b
	PSUBUSB X6, X4  // X4 = min(pa, pb) −sat pc
	PCMPEQB X13, X4 // X4 = 0xff where pc ≥ min(pa, pb)
	PXOR    X3, X5
	PAND    X4, X5
	PXOR    X3, X5  // X5 = the predictor
	PSUBB   X5, X0  // X0 = x − predictor
	MOVOU   X0, (DI)(AX*1)
	SUM(X0, X12)

	ADDQ $16, AX
	CMPQ AX, CX
	JLE  loop

	FOLD(X8, 0)
	FOLD(X9, 8)
	FOLD(X10, 16)
	FOLD(X11, 24)
	FOLD(X12, 32)

done:
	MOVQ AX, ret+88(FP)
	RET
