//go:build amd64

package cpufeat

// cpuid and xgetbv0 are implemented in cpufeat_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// AVX2 reports whether the CPU and OS support AVX2 (256-bit integer
// vectors plus OS-managed YMM state). AVX2 implies AVX, so the float
// kernels that need only AVX dispatch on it too.
var AVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1-2: SSE and YMM state enabled by the OS.
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}
