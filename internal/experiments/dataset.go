// Package experiments contains one driver per figure of the paper's
// evaluation (§5). Each driver runs the default, negotiated, and globally
// optimal routing over the synthetic ISP dataset and returns the samples
// that make up the corresponding figure's CDF curves. See DESIGN.md §3
// for the experiment index.
package experiments

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/gen"
	"repro/internal/pairsim"
	"repro/internal/runner"
	"repro/internal/topology"
)

// Dataset is the loaded ISP dataset plus a shared routing-table cache.
// The zero value of the unexported fields is ready to use, so a literal
// &Dataset{ISPs: ..., Cache: ...} works; ISPs must not change after the
// first DistancePairs or BandwidthPairs call, and a Dataset must not be
// copied after it.
type Dataset struct {
	ISPs  []*topology.ISP
	Cache *pairsim.TableCache

	// The pair universe is enumerated once per Dataset: every driver,
	// Inventory and nexitsim's warm decision share these two lists.
	distanceOnce, bandwidthOnce sync.Once
	distance, bandwidth         []*topology.Pair
}

// Load generates a dataset from the given generator configuration,
// sharding per-ISP generation across GOMAXPROCS cores (dataset format
// v2; the result is identical at every worker count).
func Load(cfg gen.Config) (*Dataset, error) {
	return LoadWorkers(cfg, 0)
}

// LoadWorkers is Load with an explicit generation worker count (<=0 =
// GOMAXPROCS). Workers change wall-clock time only, never the dataset.
func LoadWorkers(cfg gen.Config, workers int) (*Dataset, error) {
	isps, err := gen.GenerateWorkers(cfg, workers)
	if err != nil {
		return nil, err
	}
	return &Dataset{ISPs: isps, Cache: pairsim.NewTableCache()}, nil
}

// FromISPs wraps an existing ISP list (e.g. parsed from a .topo file).
func FromISPs(isps []*topology.ISP) *Dataset {
	return &Dataset{ISPs: isps, Cache: pairsim.NewTableCache()}
}

// DistancePairs returns the pairs eligible for the distance experiments:
// at least two interconnections, logical-mesh topologies excluded
// (paper §5.1; 229 pairs in the measured dataset). The list is computed
// on the first call and every call returns the same slice: it is shared
// and read-only — callers must not reorder, overwrite or append to it,
// nor modify the pairs it points to.
func (d *Dataset) DistancePairs() []*topology.Pair {
	d.distanceOnce.Do(func() { d.distance = topology.AllPairs(d.ISPs, 2, true) })
	return d.distance
}

// BandwidthPairs returns the pairs eligible for the failure experiments:
// at least three interconnections, so at least two survive a failure
// (paper §5.2; 247 pairs in the measured dataset). It is the subsequence
// of DistancePairs with three or more — the same *Pair values in the
// same order, so the list equals topology.AllPairs(ISPs, 3, true) index
// for index — computed on the first call, shared and read-only like it.
func (d *Dataset) BandwidthPairs() []*topology.Pair {
	d.bandwidthOnce.Do(func() {
		for _, p := range d.DistancePairs() {
			if p.NumInterconnections() >= 3 {
				d.bandwidth = append(d.bandwidth, p)
			}
		}
	})
	return d.bandwidth
}

// Options bounds an experiment run.
type Options struct {
	// MaxPairs limits the number of ISP pairs processed (0 = all). When
	// limiting, pairs are chosen by seeded keyed selection (see
	// selectPairs): subsets are unbiased, reproducible in Seed alone,
	// and nest as MaxPairs grows.
	MaxPairs int
	// Seed drives pair subsampling and any randomized strategy (the
	// flow-local baselines pick among candidates at random).
	Seed int64
	// Workers is the number of goroutines evaluating ISP pairs
	// concurrently (0 = runtime.GOMAXPROCS(0)). Results are identical
	// for every worker count: each pair draws from its own
	// (Seed, pair index)-derived RNG and results are reduced in pair
	// order. See internal/runner.
	Workers int
}

// prefBound is the preference class bound P every experiment negotiates
// with, the paper's 10 (§5).
const prefBound = 10

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Warm precomputes every ISP's routing table, sharding the per-ISP
// all-pairs Dijkstra across workers goroutines (0 = GOMAXPROCS).
// Without warming, tables are computed lazily by the first pair that
// touches each ISP, which serializes most of the dataset's cold-start
// cost behind the first few pairs of the first experiment. Warming is
// idempotent and changes no result.
func (d *Dataset) Warm(workers int) { d.Cache.Warm(d.ISPs, workers) }

// selectPairs applies MaxPairs subsampling. Selection is keyed rather
// than shuffled: each pair index draws a deterministic key from
// (Seed, index) via the runner's splitmix64 mix and the MaxPairs
// smallest (key, index) win, in dataset order. Like the historical
// seeded shuffle, subsets are unbiased and reproducible in Seed alone;
// unlike it, subsets nest (the MaxPairs=k selection is a prefix-by-key
// of the MaxPairs=k+1 selection) and selecting costs one pass over the
// list plus O(MaxPairs) memory: the winners are held in a max-heap of
// MaxPairs entries whose root is the largest key still selected, and a
// later index displaces it only when its key is smaller. The input is
// never reordered (it is the Dataset's shared list); pairs itself is
// returned when the cap does not bite.
func selectPairs(pairs []*topology.Pair, opt Options) []*topology.Pair {
	k := opt.MaxPairs
	if k <= 0 || k >= len(pairs) {
		return pairs
	}
	heap := make([]keyedIndex, k)
	for i := range heap {
		heap[i] = keyedIndex{runner.PairSeed(opt.Seed, i), i}
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	for i := k; i < len(pairs); i++ {
		if e := (keyedIndex{runner.PairSeed(opt.Seed, i), i}); e.less(heap[0]) {
			heap[0] = e
			siftDown(heap, 0)
		}
	}
	sel := make([]int, k)
	for i, e := range heap {
		sel[i] = e.index
	}
	sort.Ints(sel) // present the subset in dataset order
	out := make([]*topology.Pair, k)
	for i, idx := range sel {
		out[i] = pairs[idx]
	}
	return out
}

// keyedIndex is a pair index under its selection key; indices break
// key ties, so the order is total.
type keyedIndex struct {
	key   int64
	index int
}

func (a keyedIndex) less(b keyedIndex) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.index < b.index
}

// siftDown restores the max-heap property of h below position i.
func siftDown(h []keyedIndex, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c].less(h[c+1]) {
			c++
		}
		if !h[i].less(h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Inventory summarizes the dataset, mirroring the counts the paper
// reports for its measured dataset.
func (d *Dataset) Inventory() string {
	meshes := 0
	for _, isp := range d.ISPs {
		if isp.IsMesh() {
			meshes++
		}
	}
	dp := d.DistancePairs()
	bp := d.BandwidthPairs()
	failures := 0
	for _, p := range bp {
		failures += p.NumInterconnections()
	}
	return fmt.Sprintf(
		"ISPs: %d (%d logical meshes, excluded like the paper's 8)\n"+
			"Distance experiment pairs (>=2 interconnections): %d (paper: 229)\n"+
			"Bandwidth experiment pairs (>=3 interconnections): %d (paper: 247)\n"+
			"Bandwidth failure cases (one per interconnection): %d\n",
		len(d.ISPs), meshes, len(dp), len(bp), failures)
}
