//go:build !amd64

package simplex

// kernels lists the row kernels this GOARCH can run: the portable loop.
func kernels() (runnable []kernel, picked string) {
	return []kernel{{"go", subScaled}}, "go"
}
