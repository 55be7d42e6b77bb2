package linalg

// axpyFMA is Axpy's AVX2/FMA kernel (axpy_amd64.s): eight lanes per pass
// with two 4-wide fused multiply-adds, one 4-wide step, then a scalar tail.
// len(y) must equal len(x).
//
//go:noescape
func axpyFMA(a float64, x, y []float64)

// axpyRowsFMA is AxpyRows's AVX2/FMA kernel (axpy_amd64.s): sixteen lanes
// per pass, each lane taking the rows' fused multiply-adds in order in a
// register, then 4-wide steps and a scalar tail. The caller checks that
// every row read lies inside x.
//
//go:noescape
func axpyRowsFMA(a, x []float64, stride int, y []float64)

// subTrackAVX is subTrack's AVX2 kernel (axpy_amd64.s). len(y) must equal
// len(x).
//
//go:noescape
func subTrackAVX(m float64, x, y []float64) (mx float64, arg int)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of extended control register 0, the set of
// register states the operating system saves across context switches.
func xgetbv() uint32

// hasAVX2FMA reports whether the CPU implements AVX2 and FMA and the
// operating system saves the YMM registers, so the kernels may run.
func hasAVX2FMA() bool {
	const (
		fma     = 1 << 12 // CPUID.1:ECX
		osxsave = 1 << 27 // CPUID.1:ECX; XGETBV is usable
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		xmmYmm  = 1<<1 | 1<<2
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xgetbv()&xmmYmm != xmmYmm {
		return false
	}
	if maxLeaf < 7 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
