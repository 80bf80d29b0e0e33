//go:build !unix || race

package simplex

// region stands in for an anonymous mapping. This build has none and
// keeps tableau rows on the Go heap, fresh per solve: either this GOOS
// has no anonymous mappings, or the race detector, which does not see
// memory outside the Go heap, must see the rows to check the flush
// fan-out.
type region []byte

// regions retains nothing on this build.
var regions chan region

// takeRegion returns nil: tableaux are allocated on the heap.
func takeRegion(int) region { return nil }

// floats returns nil: r is always nil.
func (region) floats(int) []float64 { return nil }

// release has nothing to return.
func (region) release() {}

// unmap has nothing to unmap.
func (region) unmap() {}
