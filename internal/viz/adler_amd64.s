#include "textflag.h"

// adlerWeights holds 16, 15, …, 1 as 16-bit words: byte j of a block
// adds 16−j times its value to s2 within the block.
DATA adlerWeights<>+0x00(SB)/8, $0x000d000e000f0010
DATA adlerWeights<>+0x08(SB)/8, $0x0009000a000b000c
DATA adlerWeights<>+0x10(SB)/8, $0x0005000600070008
DATA adlerWeights<>+0x18(SB)/8, $0x0001000200030004
GLOBL adlerWeights<>(SB), RODATA|NOPTR, $32

// func adlerBlocks(s1, s2 uint32, p []byte) (uint32, uint32)
//
// For n blocks B₀…Bₙ₋₁ with byte sums S_k, s1 gains ΣS_k and s2 gains
// 16·(n·s1 + Σ_k Σ_{m<k} S_m) + Σ_k Σ_j (16−j)·B_k[j].
//
// Registers: AX = s1, BX = s2, SI = &p[k·16], CX = blocks left.
// X0 = the prefix sums (n·s1 to start with), X1 = the byte sums
// (PSADBW: two 64-bit lanes), X2 = the weighted sums (four 32-bit
// lanes), X3–X4 scratch, X5–X6 the weights, X7 = 0.
TEXT ·adlerBlocks(SB), NOSPLIT, $0-40
	MOVL s1+0(FP), AX
	MOVL s2+4(FP), BX
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	SHRQ $4, CX
	JZ   done

	MOVL  AX, DX
	IMULL CX, DX
	MOVL  DX, X0
	PXOR  X1, X1
	PXOR  X2, X2
	PXOR  X7, X7
	MOVOU adlerWeights<>+0x00(SB), X5
	MOVOU adlerWeights<>+0x10(SB), X6

loop:
	MOVOU     (SI), X3
	PADDD     X1, X0 // the sums of the blocks before this one
	MOVO      X3, X4
	PSADBW    X7, X4
	PADDD     X4, X1
	MOVO      X3, X4
	PUNPCKLBW X7, X3 // bytes 0–7 as words
	PUNPCKHBW X7, X4 // bytes 8–15 as words
	PMADDWL   X5, X3
	PMADDWL   X6, X4
	PADDD     X3, X2
	PADDD     X4, X2
	ADDQ      $16, SI
	DECQ      CX
	JNZ       loop

	// s2 += 16·X0 + the lanes of X2; s1 += the lanes of X1.
	PSLLL  $4, X0
	PADDD  X0, X2
	PSHUFD $0x4e, X2, X0
	PADDD  X0, X2
	PSHUFD $0xb1, X2, X0
	PADDD  X0, X2
	MOVL   X2, DX
	ADDL   DX, BX
	PSHUFD $0x4e, X1, X0
	PADDD  X0, X1
	MOVL   X1, DX
	ADDL   DX, AX

done:
	MOVL AX, ret+32(FP)
	MOVL BX, ret1+36(FP)
	RET
