package experiments

import (
	"runtime"
	"testing"

	"repro/internal/traffic"
)

// distanceBytesPerCell bounds what a warm DistanceStream pass allocates
// per (item, alternative) cell of its pairs. Nearly all of it is the
// per-pair workload (flows, items, defaults), the Results (Assign and
// transcript copies) and the baselines' assignments; the engine's
// working state and the evaluators' scratch come from free lists. On
// go1.24 linux/amd64 the pass below reads 82 B per cell, so the bound
// leaves 1.46× headroom; allocating both per pair, as before the free
// lists, read 294.
const distanceBytesPerCell = 120

// TestDistanceStreamAllocationBudget pins the allocation volume of a
// warm, serial DistanceStream pass on a small fixed dataset: the first
// pass warms the routing tables and the free lists, the second is
// measured. A driver that allocates an engine state or an evaluator
// scratch per pair again reads several times the bound.
func TestDistanceStreamAllocationBudget(t *testing.T) {
	ds := smallDataset(t)
	ds.Warm(0)
	opt := Options{MaxPairs: 40, Seed: 3, Workers: 1}
	cells := 0
	for _, pair := range selectPairs(ds.DistancePairs(), opt) {
		ps := newPairSetupWithModel(pair, ds.Cache, traffic.Identical)
		if total, _, _ := ps.distances(ps.defaults); total > 0 {
			cells += len(ps.items) * ps.s.NumAlternatives()
		}
	}
	pairs := 0
	pass := func() {
		pairs = 0
		err := DistanceStream(ds, opt, func(int, *DistancePairResult) error {
			pairs++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	if pairs < 20 || cells == 0 {
		t.Fatalf("%d pairs, %d cells: the dataset no longer exercises the pass", pairs, cells)
	}
	perCell := float64(after.TotalAlloc-before.TotalAlloc) / float64(cells)
	t.Logf("%d pairs, %d cells: %.1f B allocated per cell (bound %d)", pairs, cells, perCell, distanceBytesPerCell)
	if perCell > distanceBytesPerCell {
		t.Errorf("a warm DistanceStream pass allocated %.1f B per (item, alternative) cell, want at most %d",
			perCell, distanceBytesPerCell)
	}
}
