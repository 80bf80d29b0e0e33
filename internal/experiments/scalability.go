package experiments

import (
	"sort"

	"repro/internal/nexit"
	"repro/internal/traffic"
)

// ScalabilityFractions are the traffic fractions the §6 sweep
// negotiates: the biggest flows covering 20%, 40%, ... of the bytes.
var ScalabilityFractions = []float64{0.2, 0.4, 0.6, 0.8, 1.0}

// ScalabilityPairResult is one ISP pair's streamed contribution: per
// traffic fraction, the share of the full-negotiation gain retained
// (1 = all of it) and the fraction of flows that carry that traffic.
type ScalabilityPairResult struct {
	// Pair names the ISP pair ("ispA-ispB").
	Pair       string    `json:"pair"`
	Fractions  []float64 `json:"fractions"`
	GainShares []float64 `json:"gain_shares"`
	FlowShares []float64 `json:"flow_shares"`
}

// ScalabilityStream measures how much of the negotiation benefit
// remains when the ISPs only put their biggest flows on the table
// (paper §6: "to improve scalability ISPs can decide to negotiate over
// only the set of long-lived and high-bandwidth flows. ... Optimizing
// the small fraction of high-bandwidth flows can optimize most of the
// traffic"). It delivers each pair's per-fraction shares to sink in
// pair order without retaining them.
func ScalabilityStream(ds *Dataset, opt Options, fractions []float64, sink func(idx int, r *ScalabilityPairResult) error) error {
	opt = opt.withDefaults()
	pairs := selectPairs(ds.DistancePairs(), opt)
	return forEachPair(pairs, ds, opt, saltScalability, traffic.Gravity,
		func(job pairJob) (*ScalabilityPairResult, error) {
			ps := job.ps
			na := ps.s.NumAlternatives()
			// The §6 claim is about optimizing most of the TRAFFIC, so
			// the quality measure here is traffic-weighted: bytes x km.
			weighted := func(assign []int) float64 {
				var sum float64
				for i, it := range ps.items {
					a, b := ps.itemRows(i)
					sum += it.Flow.Size * ps.via(a, b, assign[i])
				}
				return sum
			}
			defTotal := weighted(ps.defaults)
			if defTotal == 0 {
				return nil, nil
			}
			cfg := nexit.DefaultDistanceConfig()
			cfg.PrefBound = prefBound

			// Distance evaluators are stateless: the pair's two serve the
			// full table and every fraction.
			evalA := nexit.NewDistanceEvaluator(ps.s, nexit.SideA, prefBound)
			defer evalA.Release()
			evalB := nexit.NewDistanceEvaluator(ps.s, nexit.SideB, prefBound)
			defer evalB.Release()
			negotiate := func(items []nexit.Item, defaults []int) ([]int, error) {
				r, err := nexit.Negotiate(cfg, evalA, evalB, items, defaults, na)
				if err != nil {
					return nil, err
				}
				return r.Assign, nil
			}

			// Full-table benchmark.
			full, err := negotiate(ps.items, ps.defaults)
			if err != nil {
				return nil, err
			}
			fullGain := defTotal - weighted(full)
			if fullGain <= 0 {
				return nil, nil
			}

			// Items sorted by size, biggest first.
			order := make([]int, len(ps.items))
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(a, b int) bool {
				return ps.items[order[a]].Flow.Size > ps.items[order[b]].Flow.Size
			})
			var totalSize float64
			for _, it := range ps.items {
				totalSize += it.Flow.Size
			}

			out := &ScalabilityPairResult{
				Pair:       pairLabel(ps.s.Pair),
				Fractions:  fractions,
				GainShares: make([]float64, len(fractions)),
				FlowShares: make([]float64, len(fractions)),
			}
			for fi, frac := range fractions {
				// Select the biggest flows covering frac of the traffic.
				var acc float64
				cut := 0
				for cut < len(order) && acc < frac*totalSize {
					acc += ps.items[order[cut]].Flow.Size
					cut++
				}
				sub := make([]nexit.Item, cut)
				subDef := make([]int, cut)
				for i := 0; i < cut; i++ {
					it := ps.items[order[i]]
					sub[i] = nexit.Item{ID: i, Flow: it.Flow, Dir: it.Dir}
					subDef[i] = ps.defaults[it.ID]
				}
				subAssign, err := negotiate(sub, subDef)
				if err != nil {
					return nil, err
				}
				// Apply the partial outcome on top of the defaults.
				assign := append([]int(nil), ps.defaults...)
				for i := 0; i < cut; i++ {
					assign[order[i]] = subAssign[i]
				}
				out.GainShares[fi] = (defTotal - weighted(assign)) / fullGain
				out.FlowShares[fi] = float64(cut) / float64(len(ps.items))
			}
			return out, nil
		},
		sink)
}
