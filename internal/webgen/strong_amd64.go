package webgen

import "crypto/sha256"

// useSHANI reports whether this CPU runs strongRounds2, which needs the SHA
// extensions and SSSE3/SSE4.1 shuffles in their legacy SSE encodings.
var useSHANI = hasSHANI()

func hasSHANI() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const ssse3, sse41, sha = 1 << 9, 1 << 19, 1 << 29
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&sha != 0
}

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// strongRounds2 replaces *d0 and *d1 with sha256.Sum256 of themselves, n
// times over, keeping both chains' state in registers throughout.
//
//go:noescape
func strongRounds2(d0, d1 *[sha256.Size]byte, n int)
