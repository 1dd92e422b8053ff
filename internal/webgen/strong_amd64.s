// Copyright 2024 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the Go distribution's LICENSE file.
//
// The round and message-schedule sequence below is adapted from blockSHANI
// in Go's crypto/internal/fips140/sha256/sha256block_amd64.s, which follows
// S. Gulley, et al, "New Instructions Supporting the Secure Hash Algorithm
// on Intel® Architecture Processors", July 2013. It uses legacy SSE
// encodings only (SHA, SSSE3, SSE4.1; no AVX).

#include "textflag.h"

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

// Chain 0 keeps its state in X1 (ABEF) and X2 (CDGH) and its message
// schedule in X3-X6; chain 1 uses X9, X10 and X11-X14. X0 is the implicit
// W+K operand of SHA256RNDS2 and X7 the schedule's scratch, both shared:
// register renaming keeps the chains independent.

// QUAD runs four rounds of one chain with W+K in X0.
#define QUAD(abef, cdgh) \
	SHA256RNDS2 X0, abef, cdgh; \
	PSHUFD      $0x0e, X0, X0; \
	SHA256RNDS2 X0, cdgh, abef

// WK loads the message words in m plus round constants i*4..i*4+3 into X0.
#define WK(m, i) \
	MOVO  m, X0; \
	PADDD kw<>+(i*16)(SB), X0

// SCHED finishes the next quad's words in next from cur and prev.
#define SCHED(cur, prev, next) \
	MOVO        cur, X7; \
	PALIGNR     $4, prev, X7; \
	PADDD       X7, next; \
	SHA256MSG2  cur, next

// TOMSG adds the IV to a chain's final state and rearranges it into the
// next round's message words H0-H3 (m0) and H4-H7 (m1).
#define TOMSG(abef, cdgh, m0, m1) \
	PADDD  iv<>+0(SB), abef; \
	PADDD  iv<>+16(SB), cdgh; \
	MOVO   abef, m0; \
	SHUFPS $0xbb, cdgh, m0; \
	MOVO   abef, m1; \
	SHUFPS $0x11, cdgh, m1

// func strongRounds2(d0, d1 *[32]byte, n int)
//
// strongRounds2 replaces each of *d0 and *d1 with SHA-256 of itself, n
// times. Every such hash is one compression from the IV of a single block:
// the 32-byte digest, 0x80, zeros and the bit length 256.
TEXT ·strongRounds2(SB), NOSPLIT, $0-24
	MOVQ d0+0(FP), DI
	MOVQ d1+8(FP), SI
	MOVQ n+16(FP), CX
	TESTQ CX, CX
	JLE  done
	MOVO flip<>(SB), X8
	MOVOU (DI), X3
	PSHUFB X8, X3
	MOVOU 16(DI), X4
	PSHUFB X8, X4
	MOVOU (SI), X11
	PSHUFB X8, X11
	MOVOU 16(SI), X12
	PSHUFB X8, X12

loop:
	MOVO iv<>+0(SB), X1
	MOVO iv<>+16(SB), X2
	MOVO pad<>+0(SB), X5
	MOVO pad<>+16(SB), X6
	MOVO iv<>+0(SB), X9
	MOVO iv<>+16(SB), X10
	MOVO pad<>+0(SB), X13
	MOVO pad<>+16(SB), X14

	// Rounds 0-15. Words 8-15 are the fixed padding, so kw holds their
	// W+K sums outright.
	WK(X3, 0)
	QUAD(X1, X2)
	WK(X11, 0)
	QUAD(X9, X10)

	WK(X4, 1)
	QUAD(X1, X2)
	SHA256MSG1 X4, X3
	WK(X12, 1)
	QUAD(X9, X10)
	SHA256MSG1 X12, X11

	MOVO kw<>+32(SB), X0
	QUAD(X1, X2)
	SHA256MSG1 X5, X4
	MOVO kw<>+32(SB), X0
	QUAD(X9, X10)
	SHA256MSG1 X13, X12

	MOVO kw<>+48(SB), X0
	QUAD(X1, X2)
	SCHED(X6, X5, X3)
	SHA256MSG1 X6, X5
	MOVO kw<>+48(SB), X0
	QUAD(X9, X10)
	SCHED(X14, X13, X11)
	SHA256MSG1 X14, X13

	// Rounds 16-51: the schedule registers rotate through X3-X6.
	WK(X3, 4)
	QUAD(X1, X2)
	SCHED(X3, X6, X4)
	SHA256MSG1 X3, X6
	WK(X11, 4)
	QUAD(X9, X10)
	SCHED(X11, X14, X12)
	SHA256MSG1 X11, X14

	WK(X4, 5)
	QUAD(X1, X2)
	SCHED(X4, X3, X5)
	SHA256MSG1 X4, X3
	WK(X12, 5)
	QUAD(X9, X10)
	SCHED(X12, X11, X13)
	SHA256MSG1 X12, X11

	WK(X5, 6)
	QUAD(X1, X2)
	SCHED(X5, X4, X6)
	SHA256MSG1 X5, X4
	WK(X13, 6)
	QUAD(X9, X10)
	SCHED(X13, X12, X14)
	SHA256MSG1 X13, X12

	WK(X6, 7)
	QUAD(X1, X2)
	SCHED(X6, X5, X3)
	SHA256MSG1 X6, X5
	WK(X14, 7)
	QUAD(X9, X10)
	SCHED(X14, X13, X11)
	SHA256MSG1 X14, X13

	WK(X3, 8)
	QUAD(X1, X2)
	SCHED(X3, X6, X4)
	SHA256MSG1 X3, X6
	WK(X11, 8)
	QUAD(X9, X10)
	SCHED(X11, X14, X12)
	SHA256MSG1 X11, X14

	WK(X4, 9)
	QUAD(X1, X2)
	SCHED(X4, X3, X5)
	SHA256MSG1 X4, X3
	WK(X12, 9)
	QUAD(X9, X10)
	SCHED(X12, X11, X13)
	SHA256MSG1 X12, X11

	WK(X5, 10)
	QUAD(X1, X2)
	SCHED(X5, X4, X6)
	SHA256MSG1 X5, X4
	WK(X13, 10)
	QUAD(X9, X10)
	SCHED(X13, X12, X14)
	SHA256MSG1 X13, X12

	WK(X6, 11)
	QUAD(X1, X2)
	SCHED(X6, X5, X3)
	SHA256MSG1 X6, X5
	WK(X14, 11)
	QUAD(X9, X10)
	SCHED(X14, X13, X11)
	SHA256MSG1 X14, X13

	WK(X3, 12)
	QUAD(X1, X2)
	SCHED(X3, X6, X4)
	SHA256MSG1 X3, X6
	WK(X11, 12)
	QUAD(X9, X10)
	SCHED(X11, X14, X12)
	SHA256MSG1 X11, X14

	// Rounds 52-63: the last words need no further schedule.
	WK(X4, 13)
	QUAD(X1, X2)
	SCHED(X4, X3, X5)
	WK(X12, 13)
	QUAD(X9, X10)
	SCHED(X12, X11, X13)

	WK(X5, 14)
	QUAD(X1, X2)
	SCHED(X5, X4, X6)
	WK(X13, 14)
	QUAD(X9, X10)
	SCHED(X13, X12, X14)

	WK(X6, 15)
	QUAD(X1, X2)
	WK(X14, 15)
	QUAD(X9, X10)

	TOMSG(X1, X2, X3, X4)
	TOMSG(X9, X10, X11, X12)
	DECQ CX
	JNZ  loop

	PSHUFB X8, X3
	MOVOU  X3, (DI)
	PSHUFB X8, X4
	MOVOU  X4, 16(DI)
	PSHUFB X8, X11
	MOVOU  X11, (SI)
	PSHUFB X8, X12
	MOVOU  X12, 16(SI)

done:
	RET

// flip turns big-endian message bytes into 32-bit lanes and back.
DATA flip<>+0x00(SB)/8, $0x0405060700010203
DATA flip<>+0x08(SB)/8, $0x0c0d0e0f08090a0b
GLOBL flip<>(SB), RODATA|NOPTR, $16

// iv is SHA-256's initial state as ABEF then CDGH.
DATA iv<>+0x00(SB)/8, $0x510e527f9b05688c
DATA iv<>+0x08(SB)/8, $0x6a09e667bb67ae85
DATA iv<>+0x10(SB)/8, $0x1f83d9ab5be0cd19
DATA iv<>+0x18(SB)/8, $0x3c6ef372a54ff53a
GLOBL iv<>(SB), RODATA|NOPTR, $32

// pad is message words 8-15 of a 32-byte message: 0x80000000, six zero
// words and the bit length 0x100.
DATA pad<>+0x00(SB)/8, $0x0000000080000000
DATA pad<>+0x08(SB)/8, $0x0000000000000000
DATA pad<>+0x10(SB)/8, $0x0000000000000000
DATA pad<>+0x18(SB)/8, $0x0000010000000000
GLOBL pad<>(SB), RODATA|NOPTR, $32

// kw is SHA-256's round constants K, with words 8-15 already holding
// K plus the padding words above.
DATA kw<>+0x00(SB)/8, $0x71374491428a2f98
DATA kw<>+0x08(SB)/8, $0xe9b5dba5b5c0fbcf
DATA kw<>+0x10(SB)/8, $0x59f111f13956c25b
DATA kw<>+0x18(SB)/8, $0xab1c5ed5923f82a4
DATA kw<>+0x20(SB)/8, $0x12835b015807aa98
DATA kw<>+0x28(SB)/8, $0x550c7dc3243185be
DATA kw<>+0x30(SB)/8, $0x80deb1fe72be5d74
DATA kw<>+0x38(SB)/8, $0xc19bf2749bdc06a7
DATA kw<>+0x40(SB)/8, $0xefbe4786e49b69c1
DATA kw<>+0x48(SB)/8, $0x240ca1cc0fc19dc6
DATA kw<>+0x50(SB)/8, $0x4a7484aa2de92c6f
DATA kw<>+0x58(SB)/8, $0x76f988da5cb0a9dc
DATA kw<>+0x60(SB)/8, $0xa831c66d983e5152
DATA kw<>+0x68(SB)/8, $0xbf597fc7b00327c8
DATA kw<>+0x70(SB)/8, $0xd5a79147c6e00bf3
DATA kw<>+0x78(SB)/8, $0x1429296706ca6351
DATA kw<>+0x80(SB)/8, $0x2e1b213827b70a85
DATA kw<>+0x88(SB)/8, $0x53380d134d2c6dfc
DATA kw<>+0x90(SB)/8, $0x766a0abb650a7354
DATA kw<>+0x98(SB)/8, $0x92722c8581c2c92e
DATA kw<>+0xa0(SB)/8, $0xa81a664ba2bfe8a1
DATA kw<>+0xa8(SB)/8, $0xc76c51a3c24b8b70
DATA kw<>+0xb0(SB)/8, $0xd6990624d192e819
DATA kw<>+0xb8(SB)/8, $0x106aa070f40e3585
DATA kw<>+0xc0(SB)/8, $0x1e376c0819a4c116
DATA kw<>+0xc8(SB)/8, $0x34b0bcb52748774c
DATA kw<>+0xd0(SB)/8, $0x4ed8aa4a391c0cb3
DATA kw<>+0xd8(SB)/8, $0x682e6ff35b9cca4f
DATA kw<>+0xe0(SB)/8, $0x78a5636f748f82ee
DATA kw<>+0xe8(SB)/8, $0x8cc7020884c87814
DATA kw<>+0xf0(SB)/8, $0xa4506ceb90befffa
DATA kw<>+0xf8(SB)/8, $0xc67178f2bef9a3f7
GLOBL kw<>(SB), RODATA|NOPTR, $256
