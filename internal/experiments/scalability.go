package experiments

import (
	"sort"

	"repro/internal/nexit"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// ScalabilityResult measures how much of the negotiation benefit remains
// when, for scalability, the ISPs only put their biggest flows on the
// table (paper §6: "to improve scalability ISPs can decide to negotiate
// over only the set of long-lived and high-bandwidth flows. ...
// Optimizing the small fraction of high-bandwidth flows can optimize
// most of the traffic").
type ScalabilityResult struct {
	// Fractions are the traffic fractions negotiated (e.g. 0.5 = the
	// biggest flows covering half the bytes).
	Fractions []float64
	// GainShare[i] is, per traffic fraction, the median share of the
	// full-negotiation gain retained (1 = all of it), over ISP pairs.
	GainShare []float64
	// FlowShare[i] is the median fraction of FLOWS that covers
	// Fractions[i] of the traffic (the "small fraction" claim).
	FlowShare []float64
	Pairs     int
}

// ScalabilityPairResult is one ISP pair's streamed contribution: the
// share of the full-negotiation gain retained and the fraction of flows
// involved, per requested traffic fraction.
type ScalabilityPairResult struct {
	// Pair names the ISP pair ("ispA-ispB").
	Pair       string    `json:"pair"`
	GainShares []float64 `json:"gain_shares"`
	FlowShares []float64 `json:"flow_shares"`
}

// ScalabilityStream runs the §6 partial-negotiation experiment,
// delivering each pair's per-fraction shares to sink in pair order
// without retaining them — the constant-memory form of Scalability.
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
			cfg.PrefBound = opt.PrefBound

			// Distance evaluators are stateless: the pair's two serve the
			// full table and every fraction.
			evalA := nexit.NewDistanceEvaluator(ps.s, nexit.SideA, opt.PrefBound)
			defer evalA.Release()
			evalB := nexit.NewDistanceEvaluator(ps.s, nexit.SideB, opt.PrefBound)
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

// Scalability runs the §6 partial-negotiation experiment and reduces it
// to per-fraction medians — a fold over ScalabilityStream into
// streaming quantile sketches (internal/stats), so nothing per-pair is
// retained: memory is O(fractions), not O(pairs). Medians follow the
// stats toolkit's nearest-rank convention and are exact up to the
// sketch capacity (far above any dataset this repo generates). Pairs
// are evaluated concurrently (Options.Workers) with identical results
// for every worker count.
func Scalability(ds *Dataset, opt Options, fractions []float64) (*ScalabilityResult, error) {
	res := &ScalabilityResult{Fractions: fractions}
	shares := make([]*stats.QuantileSketch, len(fractions))
	flowShares := make([]*stats.QuantileSketch, len(fractions))
	for fi := range fractions {
		shares[fi] = stats.NewQuantileSketch(0)
		flowShares[fi] = stats.NewQuantileSketch(0)
	}
	err := ScalabilityStream(ds, opt, fractions, func(_ int, o *ScalabilityPairResult) error {
		for fi := range fractions {
			shares[fi].Add(o.GainShares[fi])
			flowShares[fi].Add(o.FlowShares[fi])
		}
		res.Pairs++
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.GainShare = make([]float64, len(fractions))
	res.FlowShare = make([]float64, len(fractions))
	for fi := range fractions {
		if shares[fi].N() > 0 {
			res.GainShare[fi] = shares[fi].Median()
			res.FlowShare[fi] = flowShares[fi].Median()
		}
	}
	return res, nil
}
