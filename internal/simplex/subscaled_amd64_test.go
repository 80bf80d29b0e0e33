package simplex

// kernels lists the row kernels this CPU can run and names the one the
// probe picked for subScaled: SSE2 always, AVX2 when the probe found it.
func kernels() (runnable []kernel, picked string) {
	runnable = []kernel{{"sse2", subScaledSSE2}}
	picked = "sse2"
	if useAVX2 {
		runnable = append(runnable, kernel{"avx2", subScaledAVX2})
		picked = "avx2"
	}
	return runnable, picked
}
