package simplex

// The assembly kernels, beside kernelGo.
const (
	kernelAVX2 kernelID = 1 + iota
	kernelAVX512
)

// hasAVX2 and hasAVX512 are the CPUID/XGETBV probe's verdicts, taken
// once at init.
var hasAVX2, hasAVX512 = probe()

// picked is the kernel Solve runs on: the widest the probe found.
var picked = widest(hasAVX2, hasAVX512)

// widest names the widest of the kernels found.
func widest(avx2, avx512 bool) kernelID {
	switch {
	case avx512:
		return kernelAVX512
	case avx2:
		return kernelAVX2
	}
	return kernelGo
}

// subScaledMulti computes, for j below the length dst shares with every
// source, dst[j] -= fs[s]*srcs[s][j] for each source s in order, on
// kernel k. The assembly bodies (subscaled_amd64.s) load and store each
// element of dst once and multiply then subtract lane by lane, rounding
// each exactly as the MULSD then SUBSD the compiler emits for
// subScaledGo; neither fuses the two.
func subScaledMulti(k kernelID, dst []float64, srcs [][]float64, fs []float64) {
	dst, fs = trim(dst, srcs, fs)
	if len(dst) == 0 || len(fs) == 0 {
		return
	}
	switch k {
	case kernelAVX512:
		subScaledMultiAVX512(dst, srcs, fs)
	case kernelAVX2:
		subScaledMultiAVX2(dst, srcs, fs)
	default:
		subScaledGo(dst, srcs, fs)
	}
}

// subScaledMultiAVX512 is subScaledMulti in 512-bit EVEX code over a dst
// no longer than any source: VMULPD then VSUBPD, 32 elements a step, then
// 8, then a masked tail, and VZEROUPPER on return.
//
//go:noescape
func subScaledMultiAVX512(dst []float64, srcs [][]float64, fs []float64)

// subScaledMultiAVX2 is subScaledMulti in 256-bit VEX code over a dst no
// longer than any source: VMULPD then VSUBPD, 16 elements a step, then 4,
// then a scalar tail of at most 3, and VZEROUPPER on return.
//
//go:noescape
func subScaledMultiAVX2(dst []float64, srcs [][]float64, fs []float64)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

// probe reports which assembly kernels this CPU and OS can run. Both
// need CPUID leaf 1's AVX and OSXSAVE. AVX2 needs leaf 7 EBX bit 5 and
// XCR0's XMM and YMM state; AVX-512 needs AVX512F (leaf 7 EBX bit 16) and
// XCR0's opmask and both ZMM state bits besides.
func probe() (avx2, avx512 bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	xcr0, _ := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	const ymmState, zmmState = 0x06, 0xe6
	return ebx&(1<<5) != 0 && xcr0&ymmState == ymmState,
		ebx&(1<<16) != 0 && xcr0&zmmState == zmmState
}
