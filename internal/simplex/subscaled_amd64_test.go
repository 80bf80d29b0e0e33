package simplex

// kernels lists the row kernels this CPU can run, the portable loop
// first, then AVX2 and AVX-512 where the probe found them.
func kernels() []kernel {
	runnable := []kernel{{"go", kernelGo}}
	if hasAVX2 {
		runnable = append(runnable, kernel{"avx2", kernelAVX2})
	}
	if hasAVX512 {
		runnable = append(runnable, kernel{"avx512", kernelAVX512})
	}
	return runnable
}
