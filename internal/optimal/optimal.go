// Package optimal computes the paper's globally optimal routing, which
// treats the two ISPs as one larger system with complete information.
//
// For the distance metric (§5.1) the optimum decomposes per flow: each
// flow independently uses the interconnection minimizing its end-to-end
// distance, pairsim.(*System).BestTotal, so it needs nothing here. For
// the bandwidth metric (§5.2) the paper minimizes the maximum increase
// in link load across both ISPs, allowing flows to be fractionally
// divided among interconnections for computational tractability; we
// formulate that LP exactly and solve it with the internal simplex
// solver. As in the paper, the fractional optimum is an
// upper bound on the quality of any unsplittable routing.
//
// The LP is built as sparse rows straight from the routing tables' path
// indexes, and its products are written float64(x*y) so that no GOARCH
// fuses them into an FMA (DESIGN.md §12 "LP tableau").
package optimal

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/pairsim"
	"repro/internal/simplex"
	"repro/internal/traffic"
)

// BandwidthResult is the outcome of the fractional min-max-load LP.
type BandwidthResult struct {
	// MEL is the optimal maximum excess load across both ISPs.
	MEL float64
	// MELUp and MELDown are the maximum excess loads within the
	// upstream and downstream ISP under the optimal fractional routing.
	MELUp, MELDown float64
	// Fractions[i][k] is the fraction of flows[i] routed over
	// interconnection k.
	Fractions [][]float64
}

// Bandwidth solves the fractional min-max-load problem for rerouting the
// given flows: minimize the maximum over links (in both ISPs) of
// (fixed load + rerouted load) / capacity.
//
// fixedUp/fixedDown are per-link loads from traffic that is not being
// rerouted (indexed like the respective ISP's Links slice); capUp/capDown
// are the link capacities. The LP is formulated in shifted single-phase
// form (see package simplex) so no artificial variables are needed, but
// for a bound that rounds a few ulps below zero.
func Bandwidth(s *pairsim.System, flows []traffic.Flow, fixedUp, fixedDown, capUp, capDown []float64) (*BandwidthResult, error) {
	return bandwidth(s, flows, fixedUp, fixedDown, capUp, capDown,
		func(_ int, maxLoad, capl, maxFixedRatio float64) bool {
			return impliedByBound(maxLoad, capl, maxFixedRatio)
		})
}

// bandwidth is Bandwidth with the link-row filter given, so tests can
// watch it or solve the full LP: drop reports whether the row of joint
// link l is left out, and a nil drop keeps every row.
func bandwidth(s *pairsim.System, flows []traffic.Flow, fixedUp, fixedDown, capUp, capDown []float64,
	drop func(l int, maxLoad, capl, maxFixedRatio float64) bool) (*BandwidthResult, error) {
	nf := len(flows)
	na := s.NumAlternatives()
	if na == 0 {
		return nil, fmt.Errorf("optimal: pair has no interconnections")
	}
	if nf == 0 {
		up, down := metrics.MEL(fixedUp, capUp), metrics.MEL(fixedDown, capDown)
		return &BandwidthResult{MEL: max(up, down), MELUp: up, MELDown: down}, nil
	}

	nUp := len(capUp)
	nLinks := nUp + len(capDown)
	capAll := make([]float64, 0, nLinks)
	capAll = append(capAll, capUp...)
	capAll = append(capAll, capDown...)
	fixedAll := make([]float64, 0, nLinks)
	fixedAll = append(fixedAll, fixedUp...)
	fixedAll = append(fixedAll, fixedDown...)

	// coef[l][i*na+k]: load placed on link l when flow i fully uses
	// interconnection k. Stored sparsely per (flow, alt) as subslice
	// views into the system's path indexes — the same memoized indexes
	// the nexit evaluators read, so across a whole experiment the path
	// structure is built once per (table, endpoint set) and shared.
	ixUp, ixDown := s.Paths()
	fa := make([][]pathLinks, nf)
	for i, f := range flows {
		fa[i] = make([]pathLinks, na)
		for k := 0; k < na; k++ {
			fa[i][k] = pathLinks{up: ixUp.To(k, f.Src), down: ixDown.From(k, f.Dst)}
		}
	}

	// Baseline: every flow fully on alternative 0.
	load0 := make([]float64, nLinks)
	for i, f := range flows {
		fa[i][0].each(nUp, func(l int) { load0[l] += f.Size })
	}
	t0 := 0.0
	maxFixedRatio := 0.0
	for l := 0; l < nLinks; l++ {
		if capAll[l] <= 0 {
			continue
		}
		if r := (fixedAll[l] + load0[l]) / capAll[l]; r > t0 {
			t0 = r
		}
		if r := fixedAll[l] / capAll[l]; r > maxFixedRatio {
			maxFixedRatio = r
		}
	}

	// Variables: x[i][k] for k=1..na-1 (alt 0 eliminated), then tShift.
	// Minimizing t is maximizing tShift where t = t0 - tShift.
	nv := nf*(na-1) + 1
	tCol := nv - 1
	xCol := func(i, k int) int { return i*(na-1) + (k - 1) }

	// Link rows: sum_i sum_{k>0} (c_{l,i,k} - c_{l,i,0}) x + cap_l*tShift
	// <= cap_l*t0 - fixed_l - load0_l. Column (i, k) is nonzero exactly on
	// the symmetric difference of its path and alternative 0's: +size where
	// only k crosses l, -size where only 0 does. Scattering the columns in
	// order keeps every row's indices increasing.
	links := make([]simplex.Row, nLinks)
	add := func(l, col int, v float64) {
		links[l].Idx = append(links[l].Idx, int32(col))
		links[l].Val = append(links[l].Val, v)
	}
	on0 := make([]int, nLinks) // i+1 where flow i's alternative 0 crosses l
	onK := make([]int, nLinks) // col+1 where column col's path crosses l
	// maxLoad[l]: fixed load plus the size of every flow with any
	// alternative crossing l, the most l can ever carry.
	maxLoad := append([]float64(nil), fixedAll...)
	onAny := make([]int, nLinks) // i+1 where some alternative of flow i crosses l
	for i, f := range flows {
		reach := func(l int) {
			if onAny[l] != i+1 {
				onAny[l] = i + 1
				maxLoad[l] += f.Size
			}
		}
		p0 := fa[i][0]
		p0.each(nUp, func(l int) { on0[l] = i + 1; reach(l) })
		for k := 1; k < na; k++ {
			col, pk := xCol(i, k), fa[i][k]
			pk.each(nUp, func(l int) { onK[l] = col + 1; reach(l) })
			pk.each(nUp, func(l int) {
				if on0[l] != i+1 {
					add(l, col, f.Size)
				}
			})
			p0.each(nUp, func(l int) {
				if onK[l] != col+1 {
					add(l, col, -f.Size)
				}
			})
		}
	}
	var aub []simplex.Row
	var bub []float64
	untouched := 0.0 // the largest load ratio of a link no column moves
	for l, row := range links {
		if capAll[l] <= 0 {
			continue
		}
		if len(row.Idx) == 0 {
			// Its load, fixed plus alternative 0's, is a constant: a floor
			// under MEL that no routing changes, added to it below.
			untouched = max(untouched, (fixedAll[l]+load0[l])/capAll[l])
			continue
		}
		if drop != nil && drop(l, maxLoad[l], capAll[l], maxFixedRatio) {
			continue
		}
		row.Idx = append(row.Idx, int32(tCol))
		row.Val = append(row.Val, capAll[l])
		aub = append(aub, row)
		bub = append(bub, float64(capAll[l]*t0)-fixedAll[l]-load0[l])
	}

	// Global bound: t >= maxFixedRatio (links untouched by rerouting
	// cannot drop below their fixed ratio), i.e. tShift <= t0 - maxFixedRatio.
	aub = append(aub, simplex.Row{Idx: []int32{int32(tCol)}, Val: []float64{1}})
	bub = append(bub, t0-maxFixedRatio)

	// Flow rows: sum_{k>0} x[i][k] <= 1, over flow i's na-1 adjacent columns.
	xs, ones := make([]int32, tCol), make([]float64, tCol)
	for j := range xs {
		xs[j], ones[j] = int32(j), 1
	}
	for i := 0; i < nf; i++ {
		lo, hi := xCol(i, 1), xCol(i, 1)+na-1
		aub = append(aub, simplex.Row{Idx: xs[lo:hi], Val: ones[lo:hi]})
		bub = append(bub, 1)
	}

	c := make([]float64, nv)
	c[tCol] = -1 // maximize tShift

	sol, err := simplex.Solve(simplex.Problem{C: c, AUb: aub, BUb: bub})
	if err != nil {
		return nil, err
	}
	if sol.Status != simplex.Optimal {
		return nil, fmt.Errorf("optimal: LP status %v", sol.Status)
	}

	// The LP's optimum also minimizes max(t, untouched), since the floor
	// is constant.
	res := &BandwidthResult{MEL: max(t0-sol.X[tCol], untouched)}
	res.Fractions = make([][]float64, nf)
	loadUp := append([]float64(nil), fixedUp...)
	loadDown := append([]float64(nil), fixedDown...)
	for i, f := range flows {
		res.Fractions[i] = make([]float64, na)
		rest := 1.0
		for k := 1; k < na; k++ {
			x := sol.X[xCol(i, k)]
			if x < 0 {
				x = 0
			}
			res.Fractions[i][k] = x
			rest -= x
		}
		if rest < 0 {
			rest = 0
		}
		res.Fractions[i][0] = rest
		for k := 0; k < na; k++ {
			frac := res.Fractions[i][k]
			if frac == 0 {
				continue
			}
			for _, l := range fa[i][k].up {
				loadUp[l] += float64(frac * f.Size)
			}
			for _, l := range fa[i][k].down {
				loadDown[l] += float64(frac * f.Size)
			}
		}
	}
	res.MELUp = metrics.MEL(loadUp, capUp)
	res.MELDown = metrics.MEL(loadDown, capDown)
	return res, nil
}

// impliedByBound reports whether the global bound t >= maxFixedRatio
// implies the row of a link with capacity capl and largest possible load
// maxLoad, with room to spare: its slack stays above tieWindow at every
// feasible point, so the row never wins or ties the ratio test.
func impliedByBound(maxLoad, capl, maxFixedRatio float64) bool {
	return float64(capl*maxFixedRatio)-maxLoad > tieWindow(maxLoad, capl)
}

// tieWindow is the slack, in load units, a dropped link row keeps:
// package simplex's ratio-test tie window, eps = 1e-9, widened by 2^14
// for the growth of the row's tableau entries over the pivots (DESIGN.md
// §12 "LP tableau").
func tieWindow(maxLoad, capl float64) float64 {
	return 0x1p14 * 1e-9 * (capl + maxLoad)
}

// pathLinks is one (flow, alternative) path as subslices of the two
// ISPs' path indexes.
type pathLinks struct{ up, down []int32 }

// each calls fn with every link of the path in the joint link space,
// where downstream links are offset by nUp.
func (p pathLinks) each(nUp int, fn func(l int)) {
	for _, l := range p.up {
		fn(int(l))
	}
	for _, l := range p.down {
		fn(nUp + int(l))
	}
}
