package simplex

// subScaled computes dst[j] -= f*src[j] for j < min(len(dst), len(src))
// in SSE2 (subscaled_amd64.s). MULPD then SUBPD rounds each lane exactly
// as the MULSD then SUBSD the compiler emits for subScaledGo.
//
//go:noescape
func subScaled(dst, src []float64, f float64)
