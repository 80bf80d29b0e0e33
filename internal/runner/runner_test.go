package runner

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// collect runs ForEachPair over n synthetic pairs with the given worker
// count and returns the reduced (idx, value) sequence.
func collect(t *testing.T, n, workers int, seed int64) []float64 {
	t.Helper()
	pairs := make([]int, n)
	for i := range pairs {
		pairs[i] = i
	}
	var out []float64
	err := ForEachPair(pairs, Options{Workers: workers, Seed: seed},
		func(idx int, p int, rng *rand.Rand) (float64, error) {
			// Mix pair identity with the private RNG stream so any
			// cross-pair RNG sharing or misordering changes the output.
			return float64(p) + rng.Float64(), nil
		},
		func(idx int, r float64) error {
			out = append(out, r)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSerialParallelIdentical(t *testing.T) {
	serial := collect(t, 100, 1, 7)
	for _, workers := range []int{2, 3, 8, runtime.GOMAXPROCS(0)} {
		parallel := collect(t, 100, workers, 7)
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(parallel), len(serial))
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("workers=%d: result[%d] = %v, want %v", workers, i, parallel[i], serial[i])
			}
		}
	}
}

func TestReduceOrder(t *testing.T) {
	pairs := make([]int, 64)
	last := -1
	err := ForEachPair(pairs, Options{Workers: 8},
		func(idx int, p int, rng *rand.Rand) (int, error) { return idx, nil },
		func(idx int, r int) error {
			if idx != r || idx != last+1 {
				return fmt.Errorf("reduce saw idx %d (res %d) after %d", idx, r, last)
			}
			last = idx
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if last != 63 {
		t.Fatalf("reduced up to %d, want 63", last)
	}
}

func TestErrStopCancels(t *testing.T) {
	pairs := make([]int, 1000)
	var evaluated atomic.Int64
	reduced := 0
	err := ForEachPair(pairs, Options{Workers: 4},
		func(idx int, p int, rng *rand.Rand) (int, error) {
			evaluated.Add(1)
			return idx, nil
		},
		func(idx int, r int) error {
			if reduced == 10 {
				return ErrStop
			}
			reduced++
			return nil
		})
	if err != nil {
		t.Fatalf("ErrStop must not surface as an error, got %v", err)
	}
	if reduced != 10 {
		t.Fatalf("reduced %d pairs, want 10", reduced)
	}
	if n := evaluated.Load(); n == 1000 {
		t.Error("stop did not cancel queued pairs")
	}
}

func TestLowestIndexErrorWins(t *testing.T) {
	pairs := make([]int, 200)
	wantErr := errors.New("boom")
	for _, workers := range []int{1, 8} {
		err := ForEachPair(pairs, Options{Workers: workers},
			func(idx int, p int, rng *rand.Rand) (int, error) {
				// Several pairs fail; the lowest index must win
				// regardless of completion order.
				if idx == 23 {
					return 0, fmt.Errorf("pair %d: %w", idx, wantErr)
				}
				if idx > 23 && idx%10 == 0 {
					return 0, errors.New("later failure")
				}
				return idx, nil
			},
			func(idx int, r int) error {
				if idx >= 23 {
					return fmt.Errorf("reduced index %d past the failure", idx)
				}
				return nil
			})
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: err = %v, want pair 23's", workers, err)
		}
	}
}

func TestReduceErrorAborts(t *testing.T) {
	pairs := make([]int, 50)
	wantErr := errors.New("reduce failed")
	err := ForEachPair(pairs, Options{Workers: 4},
		func(idx int, p int, rng *rand.Rand) (int, error) { return idx, nil },
		func(idx int, r int) error {
			if idx == 5 {
				return wantErr
			}
			return nil
		})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want reduce's", err)
	}
}

func TestEmptyAndSmall(t *testing.T) {
	if err := ForEachPair(nil, Options{Workers: 8},
		func(idx int, p int, rng *rand.Rand) (int, error) { return 0, nil },
		func(idx int, r int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	got := collect(t, 1, 8, 3)
	want := collect(t, 1, 1, 3)
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("single pair: got %v, want %v", got, want)
	}
}

// The reorder window is bounded: a slow head-of-line pair must not let
// fast workers race ahead and park O(pairs) results in the reducer's
// pending buffer (the pipeline's O(workers) memory contract).
func TestBoundedReorderWindow(t *testing.T) {
	const n = 2000
	const workers = 4
	pairs := make([]int, n)
	var maxStarted atomic.Int64
	var reducedFirst atomic.Bool
	err := ForEachPair(pairs, Options{Workers: workers},
		func(idx int, p int, rng *rand.Rand) (int, error) {
			if !reducedFirst.Load() {
				for {
					cur := maxStarted.Load()
					if int64(idx) <= cur || maxStarted.CompareAndSwap(cur, int64(idx)) {
						break
					}
				}
			}
			if idx == 0 {
				time.Sleep(200 * time.Millisecond) // head-of-line straggler
			}
			return idx, nil
		},
		func(idx int, r int) error {
			if idx == 0 {
				reducedFirst.Store(true)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// While pair 0 blocked the reducer, claims must stay within the
	// ticket window (reorderWindowPerWorker*workers) plus scheduling
	// slack — far below the O(n) an unbounded window permits.
	limit := int64(2*reorderWindowPerWorker*workers + workers)
	if got := maxStarted.Load(); got > limit {
		t.Errorf("workers claimed up to pair %d while pair 0 was unreduced (window limit ~%d): reorder buffer is unbounded", got, limit)
	}
}

func TestForEachIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		hits := make([]atomic.Int32, 500)
		ForEachIndex(len(hits), workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, n)
			}
		}
	}
	ForEachIndex(0, 4, func(i int) { t.Error("fn called for n=0") })
}

func TestPairSeedDecorrelated(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 10000; i++ {
		s := PairSeed(1, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("PairSeed(1,%d) collides with index %d", i, prev)
		}
		seen[s] = i
	}
	if PairSeed(1, 0) == PairSeed(2, 0) {
		t.Error("root seed does not change derived seeds")
	}
	if PairSeed(1, 5) != PairSeed(1, 5) {
		t.Error("PairSeed is not a pure function")
	}
}
