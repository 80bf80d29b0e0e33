package nexit

import (
	"runtime"
	"sync"
)

// parallelEvalThreshold is the minimum number of (item, alternative)
// evaluations before sharding the per-item loop pays for the goroutine
// handoff. Below it the serial loop wins on every machine.
const parallelEvalThreshold = 4096

// maxEvalWorkers bounds the per-pair worker set so one large pair
// cannot monopolize the scheduler when many pairs negotiate at once.
const maxEvalWorkers = 4

// forEachItem runs fn(i) for 0 <= i < n. Rounds are inherently
// sequential but per-item preference evaluation is not, so when the
// work is large enough and more than one CPU is available the loop is
// sharded across a bounded worker set. fn must write only to
// index-disjoint state; the shards then compose to exactly the serial
// result regardless of scheduling.
func forEachItem(n, perItem int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > maxEvalWorkers {
		workers = maxEvalWorkers
	}
	if workers <= 1 || n*perItem < parallelEvalThreshold {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		// stride is passed, not captured: capturing workers would move it
		// to the heap at function entry, costing the serial fast path an
		// allocation per call.
		go func(start, stride int) {
			defer wg.Done()
			for i := start; i < n; i += stride {
				fn(i)
			}
		}(w, workers)
	}
	wg.Wait()
}

// evalScratch is the per-evaluator buffer set reused across Prefs and
// RawDeltas calls: the delta matrix and the class matrix. Backing
// arrays grow to the largest shape seen and are then reused, also by
// the next evaluator once this one is released, so steady-state
// preference evaluation allocates nothing.
//
// Ownership contract: rows handed out by Prefs/RawDeltas point into the
// scratch and stay valid only until the NEXT Prefs or RawDeltas call on
// the same evaluator, or its Release. Callers that retain preferences
// across calls must copy (the engine does, via clampPrefsInto; the wire
// responder copies into its own per-item buffer).
type evalScratch struct {
	deltaFlat []float64
	deltaRows [][]float64
	intFlat   []int
	intRows_  [][]int

	// items/defaults are the per-call view read by the metric's row
	// method (evaluator.fn): binding it once at construction and passing
	// call state through the scratch keeps steady-state Prefs free of
	// the per-call capture allocation a fresh closure would cost. Set
	// before the item loop, read (never written) by its shards.
	items    []Item
	defaults []int
}

// scratches is the evaluators' free list of scratches, bounded like the
// engine's (see states): two per GOMAXPROCS, one for each side of a
// negotiation that can run at once.
var scratches = make(chan *evalScratch, 2*runtime.GOMAXPROCS(0))

// newScratch takes a scratch from the free list, or allocates an empty
// one when none is free.
func newScratch() *evalScratch {
	select {
	case s := <-scratches:
		return s
	default:
		return new(evalScratch)
	}
}

// deltas returns the items x alts delta matrix. Its cells hold whatever
// the last call left: the metric's row method overwrites every one.
func (s *evalScratch) deltas(items, alts int) [][]float64 {
	need := items * alts
	if cap(s.deltaFlat) < need {
		s.deltaFlat = make([]float64, need)
	}
	flat := s.deltaFlat[:need]
	if cap(s.deltaRows) < items {
		s.deltaRows = make([][]float64, items)
	}
	rows := s.deltaRows[:items]
	for i := range rows {
		rows[i], flat = flat[:alts:alts], flat[alts:]
	}
	return rows
}

// intRows returns a class matrix matching the shape of deltas. Its cells
// hold whatever the last call left: mapDeltas overwrites every one.
func (s *evalScratch) intRows(deltas [][]float64) [][]int {
	total := 0
	for _, ds := range deltas {
		total += len(ds)
	}
	if cap(s.intFlat) < total {
		s.intFlat = make([]int, total)
	}
	flat := s.intFlat[:total]
	if cap(s.intRows_) < len(deltas) {
		s.intRows_ = make([][]int, len(deltas))
	}
	rows := s.intRows_[:len(deltas)]
	for i, ds := range deltas {
		rows[i], flat = flat[:len(ds):len(ds)], flat[len(ds):]
	}
	return rows
}
