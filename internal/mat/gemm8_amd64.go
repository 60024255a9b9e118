//go:build amd64

package mat

// cpuid and xgetbv0 are implemented in gemm8_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// gemm8TileAVX2 computes C columns [j0, j1) — j1-j0 a multiple of 8 —
// for all m rows of C = A·B, where A is the Pack8 form of an m×k int8
// matrix, row l of B starts at b[off[l]] and C rows are ldc int32s
// apart. Implemented in gemm8_amd64.s; only called when hasAVX2 is true,
// with off already validated by Gemm8Wide.
//
//go:noescape
func gemm8TileAVX2(a *int16, b *int8, off *int, c *int32, m, ldc, k, j0, j1 int)

// hasAVX2 reports whether the CPU and OS support AVX2 (256-bit integer
// vectors plus OS-managed YMM state). Checked once at startup; the
// pure-Go fallback covers everything else.
var hasAVX2 = detectAVX2()

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
