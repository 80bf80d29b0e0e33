package nexit

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/pairsim"
	"repro/internal/routing"
)

// Mapping selects how an ISP's internal metric deltas are mapped to
// preference classes. The paper notes ISPs can reduce information
// disclosure by using ordinal preferences or fewer classes (§4).
type Mapping int

// Preference mappings.
const (
	// Cardinal maps metric deltas linearly onto [-P, P] with floor
	// rounding (a class is a lower bound on the real improvement).
	Cardinal Mapping = iota
	// Ordinal discloses only the rank of each alternative relative to
	// the default: better alternatives get +1, +2, ... in order of
	// improvement, worse ones -1, -2, ...; magnitudes carry no metric
	// information beyond order.
	Ordinal
)

// Scale selects the normalization denominator for the Cardinal mapping.
// Both modes pick one unit for the whole table a Prefs call maps (every
// item, every alternative), so within a call one class is the same real
// quantity for every flow.
type Scale int

// Scaling modes.
const (
	// ScalePerFlow normalizes by the table's largest absolute delta: the
	// single biggest gain or loss maps to ±P, and a flow whose deltas are
	// all small next to it gets small classes, possibly 0. It is the
	// default. The name is historical; the unit is not chosen per flow.
	ScalePerFlow Scale = iota
	// ScaleGlobal normalizes by the 90th percentile of the table's
	// non-zero absolute deltas, so outliers saturate at ±P and the bulk
	// of flows keeps resolution. MapDeltas uses it. The ablation bench
	// compares the two.
	ScaleGlobal
)

// String names the scale mode.
func (s Scale) String() string {
	if s == ScalePerFlow {
		return "per-flow"
	}
	if s == ScaleGlobal {
		return "global"
	}
	return fmt.Sprintf("scale(%d)", int(s))
}

// String names the mapping.
func (m Mapping) String() string {
	if m == Cardinal {
		return "cardinal"
	}
	if m == Ordinal {
		return "ordinal"
	}
	return fmt.Sprintf("mapping(%d)", int(m))
}

// view resolves items to path endpoints within one ISP's own network.
type view struct {
	side  Side
	table *routing.Table
	ixOwn []int // own PoP of each interconnection

	// idx is the CSR path index over ixOwn, resolved from the table's
	// memo by the load-based evaluators (distance never needs paths, so
	// it skips the build). Lookups are zero-allocation subslices.
	idx *routing.PathIndex
}

func newView(s *pairsim.System, side Side) view {
	v := view{side: side}
	if side == SideA {
		v.table = s.Up
	} else {
		v.table = s.Down
	}
	v.ixOwn = make([]int, len(s.Pair.Interconnections))
	for k, ix := range s.Pair.Interconnections {
		if side == SideA {
			v.ixOwn[k] = ix.APoP
		} else {
			v.ixOwn[k] = ix.BPoP
		}
	}
	return v
}

// upstream reports whether the item's path inside this ISP runs from
// its source to the interconnection (the ISP is the item's upstream)
// rather than from the interconnection to its destination.
func (v view) upstream(it Item) bool {
	return (v.side == SideA && it.Dir == AtoB) || (v.side == SideB && it.Dir == BtoA)
}

// pathLinks returns the own-network links used by the item via
// interconnection k as a zero-allocation view into the path index
// (valid for the table's lifetime; callers must not modify it). The
// caller must have resolved v.idx (load-based evaluators do so at
// construction).
func (v view) pathLinks(it Item, k int) []int32 {
	if v.upstream(it) {
		return v.idx.To(k, it.Flow.Src)
	}
	return v.idx.From(k, it.Flow.Dst)
}

// cardinalDenominator picks the normalization unit for cardinal classes:
// the table's largest absolute delta under ScalePerFlow, the 90th
// percentile of its non-zero absolute deltas under ScaleGlobal (outliers
// saturate at +/-P) so the bulk of flows retain resolution. buf is the
// reusable sort buffer (its backing array is grown once and then reused
// across calls). NaN deltas count in neither mode: they fail both a > 0
// and a > max.
func cardinalDenominator(deltas [][]float64, scale Scale, buf *[]float64) float64 {
	if scale == ScalePerFlow {
		max := 0.0
		for _, ds := range deltas {
			for _, d := range ds {
				if a := math.Abs(d); a > max {
					max = a
				}
			}
		}
		return max
	}
	size := 0
	for _, ds := range deltas {
		size += len(ds)
	}
	if cap(*buf) < size {
		*buf = make([]float64, 0, size)
	}
	mags := (*buf)[:0]
	for _, ds := range deltas {
		for _, d := range ds {
			if a := math.Abs(d); a > 0 {
				mags = append(mags, a)
			}
		}
	}
	*buf = mags
	if len(mags) == 0 {
		return 0
	}
	sort.Float64s(mags)
	i := int(0.9 * float64(len(mags)-1))
	d := mags[i]
	if d == 0 {
		d = mags[len(mags)-1]
	}
	return d
}

// mapDeltas converts per-item, per-alternative metric deltas (positive =
// better than default) to preference classes. The returned rows live on
// the scratch and are valid only until the next mapDeltas call with the
// same scratch.
func mapDeltas(deltas [][]float64, p int, mapping Mapping, scale Scale, s *evalScratch) [][]int {
	out := s.intRows(deltas)
	switch mapping {
	case Ordinal:
		for i, ds := range deltas {
			for k, d := range ds {
				// Rank = number of strictly-between deltas of the same
				// sign plus one, clamped to P.
				if d == 0 {
					out[i][k] = 0
					continue
				}
				rank := 1
				for _, e := range ds {
					if d > 0 && e > 0 && e < d {
						rank++
					}
					if d < 0 && e < 0 && e > d {
						rank++
					}
				}
				if rank > p {
					rank = p
				}
				if d > 0 {
					out[i][k] = rank
				} else {
					out[i][k] = -rank
				}
			}
		}
		return out
	default: // Cardinal
		denom := cardinalDenominator(deltas, scale, &s.mags)
		if denom == 0 {
			for _, row := range out {
				clear(row)
			}
			return out
		}
		for i, ds := range deltas {
			row := out[i][:len(ds)]
			for k, d := range ds {
				// Floor rounding throughout: a class is a certified
				// LOWER bound on the real improvement, for losses and
				// gains alike. Summing bounds, a non-negative cumulative
				// class gain implies the real metric change is bounded
				// below by the (one-class-unit) deficit allowance — the
				// engine-level mechanism behind the paper's "negotiating
				// carries no risk" (Figure 4b shows no negotiated
				// losses). Round-to-nearest on gains would leak half a
				// unit per traded flow, which accumulates into real
				// losses over hundreds of flows.
				cls := int(math.Floor(float64(p) * d / denom))
				if cls > p {
					cls = p
				}
				if cls < -p {
					cls = -p
				}
				row[k] = cls
			}
		}
		return out
	}
}

// MapDeltas quantizes raw metric deltas to preference classes with the
// default cardinal mapping (floor rounding, q90 scaling). It is exported
// for evaluators composed outside this package and returns freshly
// allocated rows (a scratch of its own, so no ownership caveats).
func MapDeltas(deltas [][]float64, p int) [][]int {
	return mapDeltas(deltas, p, Cardinal, ScaleGlobal, &evalScratch{})
}

// evaluator is the body the three metric evaluators share: a metric
// contributes only fn, which fills one item's row of deltas from its
// per-alternative cost.
type evaluator struct {
	view    view
	P       int
	Mapping Mapping
	Scale   Scale
	// scratch comes from the free list at construction and goes back to
	// it on Release; nil after Release.
	scratch *evalScratch
	// fn is the metric's row method, bound once as a method value by its
	// constructor; per-call state flows through the scratch so
	// steady-state Prefs allocates nothing. A closure built in a helper
	// shared by the constructors loses the inlining of the cost call in
	// the item loop (DESIGN.md §12).
	fn func(i int)
}

// Prefs implements Evaluator. Metric state is only read here, so the
// per-item loop is sharded by forEachItem when large. The returned rows
// live on the evaluator's scratch: they are valid until the next Prefs
// or RawDeltas call on this evaluator (see evalScratch).
func (e *evaluator) Prefs(items []Item, defaults []int) [][]int {
	return mapDeltas(e.RawDeltas(items, defaults), e.P, e.Mapping, e.Scale, e.scratch)
}

// RawDeltas returns the unquantized per-alternative metric improvements
// over each item's default (positive = better, e.g. a shorter
// own-network path). Aggregating evaluators (e.g. destination-based
// routing) sum these before quantizing. The rows live on the
// evaluator's scratch and are valid until the next Prefs or RawDeltas
// call.
func (e *evaluator) RawDeltas(items []Item, defaults []int) [][]float64 {
	if e.scratch == nil {
		panic("nexit: evaluator used after Release")
	}
	na := len(e.view.ixOwn)
	deltas := e.scratch.deltas(len(items), na)
	e.scratch.items, e.scratch.defaults = items, defaults
	forEachItem(len(items), na, e.fn)
	return deltas
}

// Release hands the evaluator's scratch to the next evaluator built, so
// a driver that builds evaluators per pair or case stops allocating
// their buffers again. Rows the evaluator returned become invalid, and
// Prefs or RawDeltas after Release panic. An evaluator nobody releases
// keeps its scratch until it is collected.
func (e *evaluator) Release() {
	s := e.scratch
	if s == nil {
		panic("nexit: evaluator released twice")
	}
	e.scratch = nil
	s.items, s.defaults = nil, nil
	select {
	case scratches <- s:
	default:
	}
}

// DistanceEvaluator maps alternatives to preferences using the distance
// a flow travels inside the ISP's own network (§5.1): shorter is better.
// It is stateless; Commit is a no-op.
type DistanceEvaluator struct {
	evaluator
	// rows are the pair's distance rows inside this side's ISP, owned by
	// the System and shared with every other reader of the pair.
	rows *pairsim.DistRows
}

// NewDistanceEvaluator builds the evaluator for the given side of the
// (A->B oriented) system.
func NewDistanceEvaluator(s *pairsim.System, side Side, p int) *DistanceEvaluator {
	rows := s.UpRows()
	if side == SideB {
		rows = s.DownRows()
	}
	e := &DistanceEvaluator{evaluator{view: newView(s, side), P: p, scratch: newScratch()}, rows}
	e.fn = e.row
	return e
}

// row fills item i's deltas: own-network distance saved against the
// item's default. The item's row of lengths is keyed by its PoP inside
// this ISP, so it is looked up once and then read per alternative.
func (e *DistanceEvaluator) row(i int) {
	it, row := e.scratch.items[i], e.scratch.deltaRows[i]
	var r []float64
	if e.view.upstream(it) {
		r = e.rows.To(it.Flow.Src)
	} else {
		r = e.rows.From(it.Flow.Dst)
	}
	base := r[e.scratch.defaults[i]]
	r = r[:len(row)]
	for k := range row {
		row[k] = base - r[k]
	}
}

// Commit implements Evaluator (distance preferences are independent
// across flows, so there is no state to update).
func (e *DistanceEvaluator) Commit(Item, int) {}

// loadEvaluator is the state the two load metrics share: the ISP's own
// link loads, which committed flows move, and the link capacities.
type loadEvaluator struct {
	evaluator
	Load []float64 // current per-link load in the own network
	Cap  []float64 // per-link capacity
}

// newLoadEvaluator checks and copies the load and capacity vectors and
// resolves the path index.
func newLoadEvaluator(s *pairsim.System, side Side, p int, load, capv []float64) loadEvaluator {
	v := newView(s, side)
	if len(load) != len(v.table.ISP.Links) || len(capv) != len(v.table.ISP.Links) {
		panic(fmt.Sprintf("nexit: load/cap vectors (%d/%d) do not match %d links",
			len(load), len(capv), len(v.table.ISP.Links)))
	}
	v.idx = v.table.PathIndexFor(v.ixOwn)
	return loadEvaluator{
		evaluator: evaluator{view: v, P: p, scratch: newScratch()},
		Load:      append([]float64(nil), load...),
		Cap:       append([]float64(nil), capv...),
	}
}

// Reset restores the evaluator to the given pre-session link loads (or
// all-zero when load is nil), letting callers reuse one evaluator
// across epochs or negotiations instead of reconstructing it.
func (e *loadEvaluator) Reset(load []float64) {
	if load == nil {
		clear(e.Load)
		return
	}
	if len(load) != len(e.Load) {
		panic(fmt.Sprintf("nexit: reset load vector has %d entries for %d links", len(load), len(e.Load)))
	}
	copy(e.Load, load)
}

// Commit implements Evaluator: the committed flow's size is added to its
// own-network path links.
func (e *loadEvaluator) Commit(it Item, alt int) {
	e.addLoad(it, alt, it.Flow.Size)
}

// Revert implements Reverter: the terminal unwind moves the flow back to
// its default alternative, so its load moves with it.
func (e *loadEvaluator) Revert(it Item, alt, def int) {
	e.addLoad(it, alt, -it.Flow.Size)
	e.addLoad(it, def, it.Flow.Size)
}

// addLoad adds size to every own-network link of the item's path via
// interconnection k.
func (e *loadEvaluator) addLoad(it Item, k int, size float64) {
	for _, li := range e.view.pathLinks(it, k) {
		e.Load[li] += size
	}
}

// BandwidthEvaluator maps alternatives to preferences using "the maximum
// increase in link load along the path" (§5.2): the evaluator tracks the
// ISP's own link loads, scores each alternative by the worst
// load-to-capacity ratio the flow would cause on its own-network path,
// and updates loads as flows are committed. With the engine's
// reassignment policy this reproduces the paper's recomputation of
// preferences after each 5% of traffic.
type BandwidthEvaluator struct{ loadEvaluator }

// NewBandwidthEvaluator builds the evaluator; load is the ISP's current
// per-link load (copied), capv its link capacities.
func NewBandwidthEvaluator(s *pairsim.System, side Side, p int, load, capv []float64) *BandwidthEvaluator {
	e := &BandwidthEvaluator{newLoadEvaluator(s, side, p, load, capv)}
	e.fn = e.row
	return e
}

// row fills item i's deltas: cost of the default minus cost of each
// alternative.
func (e *BandwidthEvaluator) row(i int) {
	it, row := e.scratch.items[i], e.scratch.deltaRows[i]
	base := e.alternativeCost(it, e.scratch.defaults[i])
	for k := range row {
		row[k] = base - e.alternativeCost(it, k)
	}
}

// alternativeCost is the worst post-placement load ratio on the item's
// own-network path for alternative k; an empty path (the flow enters and
// leaves at the same PoP) costs nothing.
func (e *BandwidthEvaluator) alternativeCost(it Item, k int) float64 {
	links := e.view.pathLinks(it, k)
	if len(links) == 0 {
		return 0
	}
	return metrics.MaxIncreaseOnPath32(e.Load, e.Cap, links, it.Flow.Size)
}

// FortzThorupEvaluator scores alternatives by the increase in total
// Fortz–Thorup link cost on the ISP's own network — the paper's alternate
// bandwidth metric ("a metric based on a linear programming formulation
// of optimal routing [10] ... the sum of link costs, where the cost is a
// piecewise linear function of load with increasing slope").
type FortzThorupEvaluator struct{ loadEvaluator }

// NewFortzThorupEvaluator builds the evaluator.
func NewFortzThorupEvaluator(s *pairsim.System, side Side, p int, load, capv []float64) *FortzThorupEvaluator {
	e := &FortzThorupEvaluator{newLoadEvaluator(s, side, p, load, capv)}
	e.fn = e.row
	return e
}

// row fills item i's deltas: cost of the default minus cost of each
// alternative.
func (e *FortzThorupEvaluator) row(i int) {
	it, row := e.scratch.items[i], e.scratch.deltaRows[i]
	base := e.alternativeCost(it, e.scratch.defaults[i])
	for k := range row {
		row[k] = base - e.alternativeCost(it, k)
	}
}

// alternativeCost is the marginal Fortz–Thorup cost of placing the flow
// on alternative k.
func (e *FortzThorupEvaluator) alternativeCost(it Item, k int) float64 {
	var cost float64
	for _, li := range e.view.pathLinks(it, k) {
		cost += metrics.FortzThorupLink(e.Load[li]+it.Flow.Size, e.Cap[li]) -
			metrics.FortzThorupLink(e.Load[li], e.Cap[li])
	}
	return cost
}

// StaticEvaluator discloses fixed preference lists; it is used by tests
// and by the worked example of the paper's Figure 3, where preference
// tables are given directly.
type StaticEvaluator struct {
	NumAlts int
	// Table maps item ID to its preference list. Missing items get
	// all-zero preferences (indifferent).
	Table map[int][]int
}

// Prefs implements Evaluator.
func (e *StaticEvaluator) Prefs(items []Item, defaults []int) [][]int {
	out := make([][]int, len(items))
	for i, it := range items {
		if p, ok := e.Table[it.ID]; ok {
			out[i] = append([]int(nil), p...)
		} else {
			out[i] = make([]int, e.NumAlts)
		}
	}
	return out
}

// Commit implements Evaluator.
func (e *StaticEvaluator) Commit(Item, int) {}
