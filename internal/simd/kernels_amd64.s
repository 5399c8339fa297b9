//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 probe kernels over internal/core's packed bucket table: a bucket
// of b slots is b adjacent 16-bit fingerprints in fps, and a key's
// fingerprint arrives broadcast into the four 16-bit lanes of fpw.

// splitmix64 multiply constants, low and high 32-bit halves (VPMULUDQ is
// a 32×32→64 product, so each 64-bit lane multiply is three of them).
DATA mixC1<>+0(SB)/8, $0xbf58476d1ce4e5b9
GLOBL mixC1<>(SB), RODATA, $8
DATA mixC1hi<>+0(SB)/8, $0x00000000bf58476d
GLOBL mixC1hi<>(SB), RODATA, $8
DATA mixC2<>+0(SB)/8, $0x94d049bb133111eb
GLOBL mixC2<>(SB), RODATA, $8
DATA mixC2hi<>+0(SB)/8, $0x0000000094d049bb
GLOBL mixC2hi<>(SB), RODATA, $8

// VPERMD index vector picking the even (low-32-bit) dword of each 64-bit
// lane into the low 128 bits: narrows four 64-bit lane results to four
// packed uint32s in one shuffle.
DATA permEven<>+0(SB)/4, $0
DATA permEven<>+4(SB)/4, $2
DATA permEven<>+8(SB)/4, $4
DATA permEven<>+12(SB)/4, $6
DATA permEven<>+16(SB)/4, $0
DATA permEven<>+20(SB)/4, $0
DATA permEven<>+24(SB)/4, $0
DATA permEven<>+28(SB)/4, $0
GLOBL permEven<>(SB), RODATA, $32

// MUL64 multiplies each 64-bit lane of x by a constant whose full and
// high-half broadcasts are c and ch: lo·lo + ((hi·lo + lo·hi) << 32).
// Trashes t1 and t2.
#define MUL64(x, c, ch, t1, t2) \
	VPMULUDQ x, c, t1  \
	VPSRLQ   $32, x, t2 \
	VPMULUDQ t2, c, t2 \
	VPMULUDQ x, ch, x  \
	VPADDQ   x, t2, x  \
	VPSLLQ   $32, x, x \
	VPADDQ   t1, x, x

// MIX64 is the splitmix64 finalizer over each 64-bit lane of x,
// bit-identical to hashing.Mix64. Trashes t1 and t2; constants live in
// Y8/Y9 (C1, C1>>32) and Y10/Y11 (C2, C2>>32).
#define MIX64(x, t1, t2) \
	VPSRLQ $30, x, t1 \
	VPXOR  t1, x, x   \
	MUL64(x, Y8, Y9, t1, t2) \
	VPSRLQ $27, x, t1 \
	VPXOR  t1, x, x   \
	MUL64(x, Y10, Y11, t1, t2) \
	VPSRLQ $31, x, t1 \
	VPXOR  t1, x, x

// The macros of maskSlotsAVX2 below name its arguments; they are defined
// above every TEXT so that go vet's frame check, which reads a macro
// body against the TEXT before it, does not match them to hashFillAVX2.

// BUCKET writes the slot mask of the bucket whose index l points at
// into the byte at m, then prefetches the flags byte and attribute
// vector of its first hit slot (of slot 0 of the table on a miss, a line
// that stays cached). The bucket's slots 0–3 and b−4…b−1 load as the two
// halves of X1 (the second window ends at the bucket's last slot, so
// nothing reads past it); VPMOVMSKB yields two bits per slot and PEXT
// with the per-b mask in CX keeps one per slot, in slot order. Expects
// the broadcast fingerprint in X0; trashes AX, BX, DI and X1.
#define BUCKET(l, m) \
	MOVL  (l), AX \
	IMULQ bsz+24(FP), AX \
	VMOVQ (SI)(AX*2), X1 \
	VPINSRQ $1, (DX)(AX*2), X1, X1 \
	VPCMPEQW X0, X1, X1 \
	VPMOVMSKB X1, BX \
	PEXTL CX, BX, BX \
	MOVB  BX, (m) \
	TZCNTL BX, BX \
	SBBQ  DI, DI \
	NOTQ  DI \
	ADDQ  AX, BX \
	ANDQ  DI, BX \
	PREFETCHT0 (R14)(BX*1) \
	IMULQ nattr+32(FP), BX \
	PREFETCHT0 (R15)(BX*2)

// KEY masks both candidate buckets of the key at R8/R9/R10 and advances
// every stream to the next key.
#define KEY \
	VPBROADCASTQ (R10), X0 \
	BUCKET(R8, R11) \
	BUCKET(R9, R12) \
	ADDQ $4, R8 \
	ADDQ $4, R9 \
	ADDQ $8, R10 \
	INCQ R11 \
	INCQ R12

// AHEAD prefetches the bucket of the key eight ahead of the one whose
// bucket index l points at. Trashes AX.
#define AHEAD(l) \
	MOVL  32(l), AX \
	IMULQ bsz+24(FP), AX \
	PREFETCHT0 (SI)(AX*2)

// func hashFillAVX2(keys *uint64, n int, seedFp, seedIdx, fpMask, idxMask uint64,
//	altOff *uint32, fp *uint16, fpw *uint64, l1, l2 *uint32)
//
// n must be a positive multiple of 4. Per iteration: four keys hash to
// fingerprints and home buckets via two vector MIX64s, the zero
// fingerprint is promoted to 1 branch-free, the broadcast fpw form is
// built with shifts, and the alternate bucket comes from a VPGATHERDD of
// the altOff memo indexed by the just-computed fingerprints.
TEXT ·hashFillAVX2(SB), NOSPLIT, $0-88
	MOVQ keys+0(FP), R8
	MOVQ n+8(FP), R9
	VPBROADCASTQ seedFp+16(FP), Y12
	VPBROADCASTQ seedIdx+24(FP), Y13
	VPBROADCASTQ fpMask+32(FP), Y14
	VPBROADCASTQ idxMask+40(FP), Y15
	MOVQ altOff+48(FP), R10
	MOVQ fp+56(FP), R11
	MOVQ fpw+64(FP), R12
	MOVQ l1+72(FP), R13
	MOVQ l2+80(FP), R14
	VPBROADCASTQ mixC1<>(SB), Y8
	VPBROADCASTQ mixC1hi<>(SB), Y9
	VPBROADCASTQ mixC2<>(SB), Y10
	VPBROADCASTQ mixC2hi<>(SB), Y11

hashloop:
	VMOVDQU (R8), Y0

	// fingerprint: mix64(key ^ seedFp) & fpMask, 0 promoted to 1.
	VPXOR Y12, Y0, Y1
	MIX64(Y1, Y5, Y6)
	VPAND Y14, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPCMPEQQ Y2, Y1, Y2
	VPSRLQ $63, Y2, Y2
	VPOR Y2, Y1, Y1

	// fpw: fingerprint broadcast into all four 16-bit lanes.
	VPSLLQ $16, Y1, Y2
	VPOR Y1, Y2, Y2
	VPSLLQ $32, Y2, Y3
	VPOR Y3, Y2, Y2
	VMOVDQU Y2, (R12)

	// fp: narrow the four 64-bit lanes to four uint16s (dwords in X3
	// double as the gather indexes below).
	VMOVDQU permEven<>(SB), Y7
	VPERMD Y1, Y7, Y3
	VPACKUSDW X3, X3, X4
	MOVQ X4, (R11)

	// home bucket: mix64(key ^ seedIdx) & idxMask.
	VPXOR Y13, Y0, Y5
	MIX64(Y5, Y1, Y6)
	VPAND Y15, Y5, Y5
	VPERMD Y5, Y7, Y6
	VMOVDQU X6, (R13)

	// alternate bucket: l1 ^ altOff[fp].
	VPCMPEQD X1, X1, X1
	VPXOR X2, X2, X2
	VPGATHERDD X1, (R10)(X3*4), X2
	VPXOR X6, X2, X2
	VMOVDQU X2, (R14)

	ADDQ $32, R8
	ADDQ $8, R11
	ADDQ $32, R12
	ADDQ $16, R13
	ADDQ $16, R14
	SUBQ $4, R9
	JNZ  hashloop

	VZEROUPPER
	RET

// func maskSlotsAVX2(fps *uint16, flags *uint8, attrs *uint16, bsz, nattr int,
//	l1, l2 *uint32, fpw *uint64, m1, m2 *uint8, n int, pext uint64)
//
// n must be positive and 4 <= bsz <= 8; attrs must be valid for every
// slot index times nattr. The bucket loads of key i+8 are prefetched
// while key i is masked, so up to sixteen buckets are in flight beyond
// the out-of-order window; the last eight keys run without.
TEXT ·maskSlotsAVX2(SB), NOSPLIT, $0-96
	MOVQ fps+0(FP), SI
	MOVQ bsz+24(FP), DX
	LEAQ -8(SI)(DX*2), DX
	MOVQ flags+8(FP), R14
	MOVQ attrs+16(FP), R15
	MOVQ l1+40(FP), R8
	MOVQ l2+48(FP), R9
	MOVQ fpw+56(FP), R10
	MOVQ m1+64(FP), R11
	MOVQ m2+72(FP), R12
	MOVQ n+80(FP), R13
	MOVQ pext+88(FP), CX
	CMPQ R13, $8
	JLE  mtail
	SUBQ $8, R13

mloop:
	AHEAD(R8)
	AHEAD(R9)
	KEY
	DECQ R13
	JNZ  mloop
	MOVQ $8, R13

mtail:
	KEY
	DECQ R13
	JNZ  mtail

	VZEROUPPER
	RET
