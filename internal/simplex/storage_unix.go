//go:build unix && !race

package simplex

import (
	"runtime"
	"syscall"
	"unsafe"
)

// region is one anonymous private mapping that backs tableaux, outside
// the Go heap, so neither the GC's goal nor its zeroing counts it.
type region []byte

// regions is the free list of mappings, Effective Go's leaky buffer: at
// most GOMAXPROCS of them, as at init, stay mapped between solves.
var regions = make(chan region, runtime.GOMAXPROCS(0))

// takeRegion returns a region of at least n float64s: one from the free
// list, or, where the list is empty or its region too small, a new
// mapping of exactly n, unmapping the smaller one. It returns nil if
// mapping fails, and the caller falls back to the heap.
func takeRegion(n int) region {
	var r region
	select {
	case r = <-regions:
	default:
	}
	if len(r) >= n*8 {
		return r
	}
	r.unmap()
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil
	}
	return b
}

// floats is the first n float64s of r, or nil for a nil r. A region
// holds old tableaux' values, not zeros.
func (r region) floats(n int) []float64 {
	if r == nil {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(r))), n)
}

// release returns r to the free list, or unmaps it if the list is full.
// Nothing may read the rows r backs afterwards.
func (r region) release() {
	if r == nil {
		return
	}
	select {
	case regions <- r:
	default:
		r.unmap()
	}
}

// unmap unmaps r, if any.
func (r region) unmap() {
	if r != nil {
		syscall.Munmap(r)
	}
}
