//go:build !amd64

package simplex

// subScaled computes dst[j] -= f*src[j] for j < min(len(dst), len(src)).
func subScaled(dst, src []float64, f float64) { subScaledGo(dst, src, f) }
