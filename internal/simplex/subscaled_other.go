//go:build !amd64

package simplex

// picked is the kernel Solve runs on: the portable loop.
var picked = kernelGo

// subScaledMulti computes, for j below the length dst shares with every
// source, dst[j] -= fs[s]*srcs[s][j] for each source s in order. This
// GOARCH has only the portable loop.
func subScaledMulti(_ kernelID, dst []float64, srcs [][]float64, fs []float64) {
	subScaledGo(dst, srcs, fs)
}
