package simplex

// useAVX2 is the CPUID/XGETBV probe's verdict, taken once at init: the
// CPU has AVX2 and the OS saves the YMM registers.
var useAVX2 = hasAVX2()

// subScaled computes dst[j] -= f*src[j] for j < min(len(dst), len(src))
// in AVX2 where the probe found it and in SSE2 otherwise
// (subscaled_amd64.s). Both multiply then subtract lane by lane, rounding
// each exactly as the MULSD then SUBSD the compiler emits for
// subScaledGo; neither fuses the two.
func subScaled(dst, src []float64, f float64) {
	if useAVX2 {
		subScaledAVX2(dst, src, f)
		return
	}
	subScaledSSE2(dst, src, f)
}

// subScaledSSE2 is subScaled in SSE2: MULPD then SUBPD, 8 elements a
// step, then a scalar tail.
//
//go:noescape
func subScaledSSE2(dst, src []float64, f float64)

// subScaledAVX2 is subScaled in 256-bit VEX code: VMULPD then VSUBPD, 16
// elements a step, then 4, then a scalar tail, and VZEROUPPER on return.
//
//go:noescape
func subScaledAVX2(dst, src []float64, f float64)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether subScaledAVX2 can run: CPUID leaf 7 reports
// AVX2, leaf 1 reports AVX and OSXSAVE, and XCR0 has the XMM and YMM
// state enabled.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
