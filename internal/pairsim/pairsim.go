// Package pairsim ties a pair of neighboring ISPs to their intra-ISP
// routing tables and evaluates flow alternatives: for a flow and a choice
// of interconnection it computes the distance traversed inside each ISP,
// the links used, and per-link loads for whole assignments.
//
// In the paper's terms (§4), "an alternative corresponds to an
// interconnection for a flow"; everything the negotiation, baselines, and
// globally optimal routing need to know about an alternative is computed
// here.
package pairsim

import (
	"math"
	"sync"

	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TableCache memoizes routing tables per ISP so that the many pairs
// sharing an ISP reuse its (expensive) all-pairs computation. It is
// safe for concurrent use: the experiment runner evaluates pairs from
// many goroutines, and a per-ISP sync.Once guarantees each table is
// computed exactly once even when several pairs race on the same ISP
// (losers block until the winner's table is ready rather than
// recomputing it).
type TableCache struct {
	tables sync.Map // *topology.ISP -> *cacheEntry
}

// cacheEntry is one ISP's slot in the cache.
type cacheEntry struct {
	once  sync.Once
	table *routing.Table
}

// NewTableCache returns an empty cache.
func NewTableCache() *TableCache {
	return &TableCache{}
}

// Get returns the routing table for isp, computing it on first use.
func (c *TableCache) Get(isp *topology.ISP) *routing.Table {
	e, ok := c.tables.Load(isp)
	if !ok {
		// Miss: race to install the entry; the per-ISP Once below makes
		// the computation itself exactly-once regardless of who wins.
		e, _ = c.tables.LoadOrStore(isp, new(cacheEntry))
	}
	entry := e.(*cacheEntry)
	entry.once.Do(func() { entry.table = routing.New(isp) })
	return entry.table
}

// Warm computes the routing tables of every given ISP, sharding the
// per-ISP all-pairs Dijkstra across workers goroutines (0 =
// GOMAXPROCS). It is the cold-start path of an experiment run: tables
// are otherwise computed lazily by the first pair that touches each
// ISP, which serializes most of the Dijkstra cost behind the first few
// pairs. Warming is idempotent, safe concurrently with Get, and changes
// no result — tables depend only on the ISP.
func (c *TableCache) Warm(isps []*topology.ISP, workers int) {
	runner.ForEachIndex(len(isps), workers, func(i int) { c.Get(isps[i]) })
}

// System is a directed view of an ISP pair: traffic flows from Up
// (upstream, contains flow sources) to Down (downstream, contains flow
// destinations) across the pair's interconnections.
type System struct {
	Pair *topology.Pair // Pair.A is the upstream, Pair.B the downstream
	Up   *routing.Table // routing inside the upstream ISP
	Down *routing.Table // routing inside the downstream ISP

	// up and down are the pair's distance rows inside Up and Down. Every
	// own-network distance is read from them, never from LengthKm again.
	up, down DistRows
}

// DistRows holds one ISP's own-network lengths between each of its PoPs
// and each interconnection of a pair, read once from
// routing.Table.LengthKm when the System is built. Rows are keyed by
// PoP, not by flow or item, so any set of items reads the same rows and
// their size is PoPs x alternatives whatever the traffic.
type DistRows struct {
	alts     int
	to, from []float64 // PoPs x alternatives, row-major by PoP
}

// newDistRows reads the rows of table for the pair's interconnections
// ixs, at their A-side PoPs if aSide, else at their B-side PoPs.
func newDistRows(table *routing.Table, ixs []topology.Interconnection, aSide bool) DistRows {
	n, na := len(table.ISP.PoPs), len(ixs)
	flat := make([]float64, 2*n*na)
	d := DistRows{alts: na, to: flat[:n*na], from: flat[n*na:]}
	for k, ix := range ixs {
		own := ix.BPoP
		if aSide {
			own = ix.APoP
		}
		for p := 0; p < n; p++ {
			d.to[p*na+k] = table.LengthKm(p, own)
			d.from[p*na+k] = table.LengthKm(own, p)
		}
	}
	return d
}

// To returns PoP pop's row of lengths to each interconnection: To(pop)[k]
// is the length of the path from pop to interconnection k's PoP. The row
// is shared; callers must not modify it.
func (d *DistRows) To(pop int) []float64 {
	i := pop * d.alts
	return d.to[i : i+d.alts : i+d.alts]
}

// From returns PoP pop's row of lengths from each interconnection:
// From(pop)[k] is the length of the path from interconnection k's PoP to
// pop. The row is shared; callers must not modify it.
func (d *DistRows) From(pop int) []float64 {
	i := pop * d.alts
	return d.from[i : i+d.alts : i+d.alts]
}

// New builds a System for traffic flowing A->B in the pair. Routing
// tables come from the cache (pass nil to compute fresh tables).
func New(pair *topology.Pair, cache *TableCache) *System {
	if cache == nil {
		cache = NewTableCache()
	}
	s := &System{
		Pair: pair,
		Up:   cache.Get(pair.A),
		Down: cache.Get(pair.B),
	}
	s.up = newDistRows(s.Up, pair.Interconnections, true)
	s.down = newDistRows(s.Down, pair.Interconnections, false)
	return s
}

// Reverse returns the System for traffic flowing in the opposite
// direction (B->A). Routing tables and distance rows are shared, not
// recomputed.
func (s *System) Reverse() *System {
	return &System{Pair: s.Pair.Reversed(), Up: s.Down, Down: s.Up, up: s.down, down: s.up}
}

// NumAlternatives returns the number of alternatives per flow (one per
// interconnection).
func (s *System) NumAlternatives() int { return len(s.Pair.Interconnections) }

// UpRows returns the distance rows inside the upstream ISP.
func (s *System) UpRows() *DistRows { return &s.up }

// DownRows returns the distance rows inside the downstream ISP.
func (s *System) DownRows() *DistRows { return &s.down }

// UpDistKm returns the geographic distance flow f travels inside the
// upstream ISP when using interconnection k: source PoP to the
// interconnection's upstream PoP.
func (s *System) UpDistKm(f traffic.Flow, k int) float64 {
	return s.up.To(f.Src)[k]
}

// DownDistKm returns the geographic distance flow f travels inside the
// downstream ISP when using interconnection k.
func (s *System) DownDistKm(f traffic.Flow, k int) float64 {
	return s.down.From(f.Dst)[k]
}

// TotalDistKm returns the end-to-end geographic distance for flow f over
// interconnection k, including the interconnection link itself. This is
// the paper's §5.1 path-length metric.
func (s *System) TotalDistKm(f traffic.Flow, k int) float64 {
	return s.UpDistKm(f, k) + s.Pair.Interconnections[k].LengthKm + s.DownDistKm(f, k)
}

// UpWeight returns the routing (IGP) weight from the flow's source to
// interconnection k's upstream PoP. Early-exit routing minimizes this.
func (s *System) UpWeight(f traffic.Flow, k int) float64 {
	return s.Up.Dist(f.Src, s.Pair.Interconnections[k].APoP)
}

// EarlyExit returns the interconnection the upstream picks under
// early-exit (hot-potato) routing: the one closest to the flow's source
// by routing weight, ties broken toward the lower interconnection index.
func (s *System) EarlyExit(f traffic.Flow) int {
	best, bestW := -1, math.Inf(1)
	for k := range s.Pair.Interconnections {
		if w := s.UpWeight(f, k); w < bestW {
			best, bestW = k, w
		}
	}
	return best
}

// BestTotal returns the interconnection minimizing the end-to-end
// distance for flow f — the per-flow globally optimal choice for the
// distance metric.
func (s *System) BestTotal(f traffic.Flow) int {
	best, bestD := -1, math.Inf(1)
	for k := range s.Pair.Interconnections {
		if d := s.TotalDistKm(f, k); d < bestD {
			best, bestD = k, d
		}
	}
	return best
}

// Assignment maps flow ID -> interconnection index for a workload.
type Assignment []int

// NewAssignment allocates an assignment for n flows, initialized to -1
// (unassigned).
func NewAssignment(n int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = -1
	}
	return a
}

// AddFlowLoad adds flow f's size to every upstream link on the path from
// its source to interconnection k and every downstream link from the
// interconnection to its destination. loadUp/loadDown are indexed like
// the respective ISP's Links slice.
func (s *System) AddFlowLoad(loadUp, loadDown []float64, f traffic.Flow, k int) {
	ix := s.Pair.Interconnections[k]
	s.Up.AddLoad(loadUp, f.Src, ix.APoP, f.Size)
	s.Down.AddLoad(loadDown, ix.BPoP, f.Dst, f.Size)
}

// Loads computes per-link loads in both ISPs for the flows under the
// given assignment. Flows assigned -1 are skipped.
func (s *System) Loads(flows []traffic.Flow, assign Assignment) (loadUp, loadDown []float64) {
	loadUp = make([]float64, len(s.Up.ISP.Links))
	loadDown = make([]float64, len(s.Down.ISP.Links))
	for _, f := range flows {
		k := assign[f.ID]
		if k < 0 {
			continue
		}
		s.AddFlowLoad(loadUp, loadDown, f, k)
	}
	return loadUp, loadDown
}
