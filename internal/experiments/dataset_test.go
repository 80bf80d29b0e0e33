package experiments

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/pairsim"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The pair universe is enumerated once per Dataset (DESIGN.md §8 "Cold
// start"): DistancePairs returns one shared list, BandwidthPairs is its
// ">= 3 interconnections" subsequence, and no driver writes to either.

// literalDataset builds the Dataset the way bench/ does: a struct
// literal, so the memo must work from the zero value.
func literalDataset(t *testing.T, isps int) *Dataset {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.NumISPs = isps
	list, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &Dataset{ISPs: list, Cache: pairsim.NewTableCache()}
}

func TestPairListsMemoised(t *testing.T) {
	ds := literalDataset(t, 18)
	dist := ds.DistancePairs()
	if len(dist) == 0 {
		t.Fatal("no distance pairs")
	}
	if again := ds.DistancePairs(); len(again) != len(dist) || &again[0] != &dist[0] {
		t.Error("DistancePairs built a second list instead of returning the first")
	}
	if !reflect.DeepEqual(dist, topology.AllPairs(ds.ISPs, 2, true)) {
		t.Error("DistancePairs differs from AllPairs(ISPs, 2, true)")
	}

	bw := ds.BandwidthPairs()
	if len(bw) == 0 || len(bw) == len(dist) {
		t.Fatalf("%d bandwidth pairs of %d distance pairs: the filter relation is not exercised", len(bw), len(dist))
	}
	if again := ds.BandwidthPairs(); len(again) != len(bw) || &again[0] != &bw[0] {
		t.Error("BandwidthPairs built a second list instead of returning the first")
	}
	var want []*topology.Pair
	for _, p := range dist {
		if p.NumInterconnections() >= 3 {
			want = append(want, p)
		}
	}
	if len(bw) != len(want) {
		t.Fatalf("%d bandwidth pairs, the >= 3 subsequence of DistancePairs has %d", len(bw), len(want))
	}
	for i := range want {
		if bw[i] != want[i] {
			t.Fatalf("bandwidth pair %d is not the distance list's *Pair", i)
		}
	}
	// Same content and order as the enumeration it replaced, hence the
	// same selectPairs indices and per-pair RNG streams.
	if !reflect.DeepEqual(bw, topology.AllPairs(ds.ISPs, 3, true)) {
		t.Error("BandwidthPairs differs from AllPairs(ISPs, 3, true)")
	}
}

func TestPairListsEnumeratedOnceConcurrently(t *testing.T) {
	ds := literalDataset(t, 18)
	const callers = 8
	var (
		wg       sync.WaitGroup
		dist, bw [callers]*(*topology.Pair)
	)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 { // half the callers ask for the filtered list first
				bw[g] = &ds.BandwidthPairs()[0]
				dist[g] = &ds.DistancePairs()[0]
			} else {
				dist[g] = &ds.DistancePairs()[0]
				bw[g] = &ds.BandwidthPairs()[0]
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < callers; g++ {
		if dist[g] != dist[0] || bw[g] != bw[0] {
			t.Fatalf("caller %d saw another list: more than one enumeration ran", g)
		}
	}
}

func TestDriversLeaveSharedListsUntouched(t *testing.T) {
	ds := smallDataset(t)
	dist := append([]*topology.Pair(nil), ds.DistancePairs()...)
	bw := append([]*topology.Pair(nil), ds.BandwidthPairs()...)

	distance := func() []*DistancePairResult {
		return distanceRecords(t, ds, Options{MaxPairs: 8, Seed: 5})
	}
	bandwidth := func() []*BandwidthCaseResult {
		return bandwidthRecords(t, ds, BandwidthOptions{Options: Options{MaxPairs: 3, Seed: 5}, Workload: traffic.Gravity, MaxFailures: 9})
	}
	d1, b1 := distance(), bandwidth()
	d2, b2 := distance(), bandwidth()
	if !reflect.DeepEqual(d1, d2) {
		t.Error("DistanceStream run twice on one Dataset gives different records")
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Error("BandwidthStream run twice on one Dataset gives different records")
	}

	check := func(name string, before, after []*topology.Pair) {
		if len(after) != len(before) {
			t.Fatalf("%s: list has %d pairs after the runs, %d before", name, len(after), len(before))
		}
		for i, p := range after {
			if p != before[i] {
				t.Fatalf("%s: a driver reordered the shared list at index %d", name, i)
			}
			if !reflect.DeepEqual(p, topology.NewPair(p.A, p.B)) {
				t.Fatalf("%s: a driver modified shared pair %v", name, p)
			}
		}
	}
	check("DistancePairs", dist, ds.DistancePairs())
	check("BandwidthPairs", bw, ds.BandwidthPairs())
}

// selectPairsByFullSort is the selection selectPairs replaced, kept as
// its reference: derive every key, sort all indices by (key, index),
// take the first MaxPairs, present them in dataset order.
func selectPairsByFullSort(pairs []*topology.Pair, opt Options) []*topology.Pair {
	if opt.MaxPairs <= 0 || opt.MaxPairs >= len(pairs) {
		return pairs
	}
	keys := make([]int64, len(pairs))
	order := make([]int, len(pairs))
	for i := range order {
		keys[i] = runner.PairSeed(opt.Seed, i)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if keys[order[a]] != keys[order[b]] {
			return keys[order[a]] < keys[order[b]]
		}
		return order[a] < order[b]
	})
	sel := append([]int(nil), order[:opt.MaxPairs]...)
	sort.Ints(sel)
	out := make([]*topology.Pair, len(sel))
	for i, idx := range sel {
		out[i] = pairs[idx]
	}
	return out
}

func TestSelectPairsMatchesFullSort(t *testing.T) {
	universe := make([]*topology.Pair, 5000)
	for i := range universe {
		universe[i] = &topology.Pair{}
	}
	// Every size through the heap's first levels and around MaxPairs =
	// 64, then a spread up to 5000.
	var sizes []int
	for n := 0; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 100, 127, 128, 129, 500, 1000, 2047, 4999, 5000)
	for _, n := range sizes {
		pairs := universe[:n]
		for _, k := range []int{0, 1, 2, 64, n - 1, n, n + 1} {
			for seed := int64(1); seed <= 5; seed++ {
				opt := Options{MaxPairs: k, Seed: seed}
				got, want := selectPairs(pairs, opt), selectPairsByFullSort(pairs, opt)
				if len(got) != len(want) {
					t.Fatalf("n=%d MaxPairs=%d seed=%d: selected %d pairs, full sort selects %d", n, k, seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d MaxPairs=%d seed=%d: selection differs from the full sort at position %d", n, k, seed, i)
					}
				}
			}
		}
	}

	// Subsets nest: the MaxPairs = k selection is inside the k+1 one.
	pairs := universe[:300]
	prev := map[*topology.Pair]bool{}
	for k := 1; k < len(pairs); k++ {
		sel := selectPairs(pairs, Options{MaxPairs: k, Seed: 3})
		in := make(map[*topology.Pair]bool, len(sel))
		for _, p := range sel {
			in[p] = true
		}
		for p := range prev {
			if !in[p] {
				t.Fatalf("MaxPairs=%d drops a pair MaxPairs=%d selected", k, k-1)
			}
		}
		prev = in
	}
}

// TestLargeUniverse runs the benchmarked cold-start scale (bench
// workload cold1024, CI's large-universe smoke) as a test: the pair
// universe of 1024 ISPs, and a bounded stream over it that is the same
// at every worker count.
func TestLargeUniverse(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-ISP universe")
	}
	ds := literalDataset(t, 1024)
	if n := len(ds.DistancePairs()); n != 122409 {
		t.Errorf("%d distance pairs at 1024 ISPs, want 122409", n)
	}
	records := func(workers int) []*DistancePairResult {
		opt := Options{MaxPairs: 6, Seed: 1, Workers: workers}
		return distanceRecords(t, ds, opt)
	}
	serial, parallel := records(1), records(4)
	if len(serial) != 6 {
		t.Fatalf("streamed %d records, want 6", len(serial))
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("records differ between Workers=1 and Workers=4")
	}
}
