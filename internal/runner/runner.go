// Package runner is the concurrent, deterministic pair-evaluation
// harness shared by every experiment driver. The paper's evaluation is
// "for each neighboring ISP pair: set up routing, negotiate, compare
// against baselines" — embarrassingly parallel across pairs once two
// invariants hold, and this package enforces both:
//
//  1. Randomness is sharded: each pair gets its own *rand.Rand derived
//     from (Options.Seed, pair index) via a splitmix64 mix, so no RNG
//     stream is threaded across pairs and the schedule of goroutines
//     cannot perturb any published number.
//  2. Reduction is ordered: results are handed to the reducer strictly
//     in pair-index order, regardless of completion order.
//
// Together these make a run with Workers=N byte-identical to a run with
// Workers=1.
package runner

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrStop may be returned by a reduce function to cancel the remaining
// work without error: in-flight pairs finish, queued pairs are skipped,
// and ForEachPair returns nil. Experiment drivers use it to honor
// MaxFailures-style caps.
var ErrStop = errors.New("runner: stop requested by reducer")

// Options configures a ForEachPair run.
type Options struct {
	// Workers is the number of goroutines evaluating pairs. Zero or
	// negative selects runtime.GOMAXPROCS(0). Results are identical for
	// every worker count.
	Workers int
	// Seed is the root of the per-pair RNG derivation (see PairRand).
	Seed int64
}

// workerCount resolves Workers against the machine and the job size.
func (o Options) workerCount(jobs int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	return w
}

// PairSeed derives the RNG seed for pair index idx from the root seed
// using a splitmix64-style mix, so neighboring indices get decorrelated
// streams. The derivation depends only on (seed, idx), never on worker
// count or scheduling.
func PairSeed(seed int64, idx int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(idx+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// PairRand returns the private RNG for pair index idx. Each invocation
// returns a fresh, identically seeded generator.
func PairRand(seed int64, idx int) *rand.Rand {
	return rand.New(rand.NewSource(PairSeed(seed, idx)))
}

// PairFunc evaluates one pair. It runs concurrently with other pairs
// and must not touch shared mutable state; rng is private to the pair.
type PairFunc[P, R any] func(idx int, pair P, rng *rand.Rand) (R, error)

// ReduceFunc folds one pair's result into the caller's accumulator. It
// is called from a single goroutine, strictly in pair-index order, so
// it needs no locking. Returning ErrStop cancels the remaining pairs
// without error; any other error aborts the run.
type ReduceFunc[R any] func(idx int, res R) error

// ForEachPair evaluates fn over every pair, sharding the work across
// opt.Workers goroutines, then reduces the results in pair-index order.
// The first error — fn's or reduce's, at the lowest pair index — wins
// deterministically. See the package comment for the determinism
// contract.
func ForEachPair[P, R any](pairs []P, opt Options, fn PairFunc[P, R], reduce ReduceFunc[R]) error {
	n := len(pairs)
	if n == 0 {
		return nil
	}
	if workers := opt.workerCount(n); workers > 1 {
		return forEachParallel(pairs, opt, workers, fn, reduce)
	}
	for i, p := range pairs {
		r, err := fn(i, p, PairRand(opt.Seed, i))
		if err != nil {
			return err
		}
		if err := reduce(i, r); err != nil {
			if errors.Is(err, ErrStop) {
				return nil
			}
			return err
		}
	}
	return nil
}

// ForEachIndex runs fn(i) for every i in [0, n) across workers
// goroutines (0 = GOMAXPROCS) and waits for completion. It is the
// cold-start sharding primitive: fn must be safe to run concurrently
// with other indices and must not depend on evaluation order (e.g.
// warming per-ISP routing tables, deriving per-pair selection keys).
func ForEachIndex(n, workers int, fn func(i int)) {
	w := Options{Workers: workers}.workerCount(n)
	if n <= 0 {
		return
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next int64 = -1
		wg   sync.WaitGroup
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// reorderWindowPerWorker sizes the bounded claim-ahead window of the
// parallel reducer: at most this many undelivered results per worker
// may exist at once. It is the constant behind the pipeline's
// O(workers) steady-state memory contract (DESIGN.md §8): without the
// bound, one slow head-of-line pair would let fast workers race ahead
// and park O(pairs) completed results in the reorder buffer.
const reorderWindowPerWorker = 4

// forEachParallel is the Workers>1 path of ForEachPair: a work-stealing
// pool feeding a single ordering reducer through a bounded reorder
// window.
func forEachParallel[P, R any](pairs []P, opt Options, workers int, fn PairFunc[P, R], reduce ReduceFunc[R]) error {
	type slot struct {
		idx int
		res R
		err error
	}
	n := len(pairs)
	window := reorderWindowPerWorker * workers
	var (
		next     int64 = -1 // atomically claimed pair cursor
		stop     atomic.Bool
		stopOnce sync.Once
		halt     = make(chan struct{}) // closed exactly once on stop
		wg       sync.WaitGroup
		out      = make(chan slot, workers)
		// tickets caps claimed-but-not-yet-reduced pairs at window: a
		// worker takes a ticket per claim, the reducer returns it once
		// the result leaves the reorder buffer. Peak retention is
		// therefore O(workers), independent of pair-runtime skew.
		tickets = make(chan struct{}, window)
	)
	stopAll := func() {
		stopOnce.Do(func() {
			stop.Store(true)
			close(halt)
		})
	}
	for i := 0; i < window; i++ {
		tickets <- struct{}{}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				select {
				case <-tickets:
				case <-halt:
					return
				}
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				r, err := fn(i, pairs[i], PairRand(opt.Seed, i))
				if err != nil {
					// The run is doomed: stop claiming new pairs
					// everywhere (in-flight ones still deliver, so the
					// reducer can reach this error in index order).
					// Claims are monotonic, so every index below this
					// one was already claimed and the lowest-index
					// error still wins deterministically.
					stopAll()
				}
				out <- slot{idx: i, res: r, err: err}
				if err != nil {
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	// Reorder completions into pair-index order. Every index below a
	// delivered one has been claimed by some worker and will be
	// delivered too (workers deliver before exiting on error), so the
	// cursor can always advance to the first error.
	pending := make(map[int]slot, window)
	nextIdx := 0
	var retErr error
	halted := false
	returnTicket := func() {
		select {
		case tickets <- struct{}{}:
		default: // halted drain can exceed the outstanding count; drop
		}
	}
	for s := range out {
		if halted {
			continue // drain so no worker blocks on send
		}
		pending[s.idx] = s
		for {
			cur, ok := pending[nextIdx]
			if !ok {
				break
			}
			delete(pending, nextIdx)
			nextIdx++
			returnTicket()
			if cur.err == nil {
				cur.err = reduce(cur.idx, cur.res)
				if errors.Is(cur.err, ErrStop) {
					cur.err = nil
					halted = true
					stopAll()
					break
				}
			}
			if cur.err != nil {
				retErr = cur.err
				halted = true
				stopAll()
				break
			}
		}
	}
	return retErr
}
