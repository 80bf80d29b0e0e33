package experiments

import (
	"math"

	"repro/internal/baseline"
	"repro/internal/metrics"
	"repro/internal/nexit"
	"repro/internal/pairsim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// pairSetup holds the per-pair state shared by distance experiments.
type pairSetup struct {
	s        *pairsim.System
	items    []nexit.Item
	defaults []int
}

// newPairSetupWithModel builds flows in both directions with early-exit
// defaults under the given flow-size model (distance metrics use
// traffic.Identical since they are size-independent; the scalability
// analysis needs skewed gravity sizes).
func newPairSetupWithModel(pair *topology.Pair, cache *pairsim.TableCache, model traffic.Model) *pairSetup {
	s := pairsim.New(pair, cache)
	rev := s.Reverse()
	wAB := traffic.New(pair.A, pair.B, model, nil)
	wBA := traffic.New(pair.B, pair.A, model, nil)
	items := nexit.Items(wAB.Flows, wBA.Flows)
	defaults := make([]int, len(items))
	for i, it := range items {
		if it.Dir == nexit.AtoB {
			defaults[i] = s.EarlyExit(it.Flow)
		} else {
			defaults[i] = rev.EarlyExit(it.Flow)
		}
	}
	return &pairSetup{s: s, items: items, defaults: defaults}
}

// itemRows returns item i's rows of own-network lengths inside ISP A
// and inside ISP B, read from the pair's distance rows: entry k is the
// length via interconnection k.
func (ps *pairSetup) itemRows(i int) (inA, inB []float64) {
	it := &ps.items[i]
	if it.Dir == nexit.AtoB {
		return ps.s.UpRows().To(it.Flow.Src), ps.s.DownRows().From(it.Flow.Dst)
	}
	return ps.s.UpRows().From(it.Flow.Dst), ps.s.DownRows().To(it.Flow.Src)
}

// via is the end-to-end distance via interconnection k of an item whose
// rows inside A and B are a and b. Every driver sums in this order.
func (ps *pairSetup) via(a, b []float64, k int) float64 {
	return a[k] + b[k] + ps.s.Pair.Interconnections[k].LengthKm
}

// distances sums end-to-end and per-ISP distances of an assignment.
func (ps *pairSetup) distances(assign []int) (total, inA, inB float64) {
	for i := range ps.items {
		a, b := ps.itemRows(i)
		k := assign[i]
		total += ps.via(a, b, k)
		inA += a[k]
		inB += b[k]
	}
	return total, inA, inB
}

// DistancePairResult is one ISP pair's streamed contribution to the
// §5.1 experiments: every per-pair sample of Figures 4, 5, 6 and the
// text analyses, computed concurrently and delivered in pair order.
type DistancePairResult struct {
	// Pair names the ISP pair ("ispA-ispB"), making streamed records
	// self-describing.
	Pair string `json:"pair"`
	// Interconnections is the pair's alternative count.
	Interconnections int `json:"interconnections"`
	// Total-gain percentages over default routing (Figures 4a, 5 and
	// the group ablation).
	GainNeg        float64 `json:"gain_negotiated"`
	GainOpt        float64 `json:"gain_optimal"`
	GainPareto     float64 `json:"gain_flow_pareto"`
	GainBothBetter float64 `json:"gain_flow_both_better"`
	GainGroup4     float64 `json:"gain_group4"`
	// Individual per-ISP gains (Figure 4b).
	IndNegA float64 `json:"ind_negotiated_a"`
	IndNegB float64 `json:"ind_negotiated_b"`
	IndOptA float64 `json:"ind_optimal_a"`
	IndOptB float64 `json:"ind_optimal_b"`
	// Per-flow gains inside this pair (Figure 6 pools them).
	FlowGainNeg []float64 `json:"flow_gain_negotiated"`
	FlowGainOpt []float64 `json:"flow_gain_optimal"`
	// NonDefaultFraction is the fraction of flows negotiation moved off
	// their default path.
	NonDefaultFraction float64 `json:"non_default_fraction"`
}

// DistanceStream runs the §5.1 experiments (Figures 4, 5, 6 and the
// text analyses), delivering each pair's result to sink strictly in
// pair order without retaining it. sink may return runner.ErrStop to
// cancel the remaining pairs without error. Pairs are evaluated
// concurrently (Options.Workers) with results identical for every
// worker count, pair by pair.
func DistanceStream(ds *Dataset, opt Options, sink func(idx int, r *DistancePairResult) error) error {
	opt = opt.withDefaults()
	pairs := selectPairs(ds.DistancePairs(), opt)
	return forEachPair(pairs, ds, opt, saltDistance, traffic.Identical,
		func(job pairJob) (*DistancePairResult, error) {
			ps := job.ps
			na := ps.s.NumAlternatives()

			// Globally optimal: per-item best end-to-end alternative.
			optAssign := make([]int, len(ps.items))
			for i := range ps.items {
				a, b := ps.itemRows(i)
				best, bestD := 0, math.Inf(1)
				for k := 0; k < na; k++ {
					if d := ps.via(a, b, k); d < bestD {
						best, bestD = k, d
					}
				}
				optAssign[i] = best
			}

			// Negotiated: Nexit with distance evaluators on both sides.
			// Distance evaluators hold no state between calls, so the
			// pair's two serve every negotiation below, and their scratch
			// then goes to the next pair's.
			cfg := nexit.DefaultDistanceConfig()
			cfg.PrefBound = prefBound
			evalA := nexit.NewDistanceEvaluator(ps.s, nexit.SideA, prefBound)
			defer evalA.Release()
			evalB := nexit.NewDistanceEvaluator(ps.s, nexit.SideB, prefBound)
			defer evalB.Release()
			neg, err := nexit.Negotiate(cfg, evalA, evalB, ps.items, ps.defaults, na)
			if err != nil {
				return nil, err
			}

			// Flow-local strategies (Figure 5), drawing from the pair's
			// private RNG. The delta rows live on the evaluators'
			// scratch, so they are used up before the next negotiation.
			dA := evalA.RawDeltas(ps.items, ps.defaults)
			dB := evalB.RawDeltas(ps.items, ps.defaults)
			paretoAssign := baseline.FlowLocal(baseline.FlowPareto, dA, dB, ps.defaults, job.rng)
			bothAssign := baseline.FlowLocal(baseline.FlowBothBetter, dA, dB, ps.defaults, job.rng)

			// Group negotiation ablation (4 groups).
			groupAssign, err := baseline.GroupNegotiate(cfg, evalA, evalB, ps.items, ps.defaults, na, 4)
			if err != nil {
				return nil, err
			}

			optTotal, optA, optB := ps.distances(optAssign)
			negTotal, negA, negB := ps.distances(neg.Assign)
			parTotal, _, _ := ps.distances(paretoAssign)
			bothTotal, _, _ := ps.distances(bothAssign)
			grpTotal, _, _ := ps.distances(groupAssign)

			out := &DistancePairResult{
				Pair:             pairLabel(ps.s.Pair),
				Interconnections: na,
				GainOpt:          metrics.GainPercent(job.defTotal, optTotal),
				GainNeg:          metrics.GainPercent(job.defTotal, negTotal),
				GainPareto:       metrics.GainPercent(job.defTotal, parTotal),
				GainBothBetter:   metrics.GainPercent(job.defTotal, bothTotal),
				GainGroup4:       metrics.GainPercent(job.defTotal, grpTotal),
				IndOptA:          metrics.GainPercent(job.defA, optA),
				IndOptB:          metrics.GainPercent(job.defB, optB),
				IndNegA:          metrics.GainPercent(job.defA, negA),
				IndNegB:          metrics.GainPercent(job.defB, negB),
			}
			nonDefault := 0
			for i := range ps.items {
				a, b := ps.itemRows(i)
				dDef := ps.via(a, b, ps.defaults[i])
				dNeg, dOpt := ps.via(a, b, neg.Assign[i]), ps.via(a, b, optAssign[i])
				if dDef > 0 {
					out.FlowGainNeg = append(out.FlowGainNeg, metrics.GainPercent(dDef, dNeg))
					out.FlowGainOpt = append(out.FlowGainOpt, metrics.GainPercent(dDef, dOpt))
				}
				if neg.Assign[i] != ps.defaults[i] {
					nonDefault++
				}
			}
			out.NonDefaultFraction = float64(nonDefault) / float64(len(ps.items))
			return out, nil
		},
		sink)
}

// CheatPairResult is one ISP pair's streamed contribution to the §5.4
// distance-cheating experiment (Figure 10).
type CheatPairResult struct {
	// Pair names the ISP pair ("ispA-ispB").
	Pair          string  `json:"pair"`
	TotalTruthful float64 `json:"total_truthful"`
	TotalCheat    float64 `json:"total_cheat"`
	IndTruthfulA  float64 `json:"ind_truthful_a"`
	IndTruthfulB  float64 `json:"ind_truthful_b"`
	IndCheater    float64 `json:"ind_cheater"`
	IndVictim     float64 `json:"ind_victim"`
	// CheaterDelta is the cheater's gain minus the same ISP's truthful
	// gain; negative means cheating backfired.
	CheaterDelta float64 `json:"cheater_delta"`
}

// DistanceCheatStream runs the §5.4 distance experiment (ISP A cheats
// using the inflate-best strategy with perfect knowledge of B's
// preferences), delivering each pair's result to sink in pair order
// without retaining it.
func DistanceCheatStream(ds *Dataset, opt Options, sink func(idx int, r *CheatPairResult) error) error {
	opt = opt.withDefaults()
	pairs := selectPairs(ds.DistancePairs(), opt)
	return forEachPair(pairs, ds, opt, saltCheat, traffic.Identical,
		func(job pairJob) (*CheatPairResult, error) {
			ps := job.ps
			na := ps.s.NumAlternatives()
			cfg := nexit.DefaultDistanceConfig()
			cfg.PrefBound = prefBound
			// Distance evaluators are stateless, so A's serves honestly
			// and as the cheater's truth, and B's is both the victim and
			// the cheater's knowledge of it (the engine copies each
			// side's classes before asking the other).
			evalA := nexit.NewDistanceEvaluator(ps.s, nexit.SideA, prefBound)
			defer evalA.Release()
			evalB := nexit.NewDistanceEvaluator(ps.s, nexit.SideB, prefBound)
			defer evalB.Release()
			honest, err := nexit.Negotiate(cfg, evalA, evalB, ps.items, ps.defaults, na)
			if err != nil {
				return nil, err
			}
			cheater := &nexit.CheatEvaluator{Truthful: evalA, Other: evalB, P: prefBound}
			cheat, err := nexit.Negotiate(cfg, cheater, evalB, ps.items, ps.defaults, na)
			if err != nil {
				return nil, err
			}

			hTotal, hA, hB := ps.distances(honest.Assign)
			cTotal, cA, cB := ps.distances(cheat.Assign)
			return &CheatPairResult{
				Pair:          pairLabel(ps.s.Pair),
				TotalTruthful: metrics.GainPercent(job.defTotal, hTotal),
				TotalCheat:    metrics.GainPercent(job.defTotal, cTotal),
				IndTruthfulA:  metrics.GainPercent(job.defA, hA),
				IndTruthfulB:  metrics.GainPercent(job.defB, hB),
				IndCheater:    metrics.GainPercent(job.defA, cA),
				IndVictim:     metrics.GainPercent(job.defB, cB),
				CheaterDelta:  metrics.GainPercent(job.defA, cA) - metrics.GainPercent(job.defA, hA),
			}, nil
		},
		sink)
}

// AblationBounds are the preference bounds P the §5 ablation compares:
// the paper's [-10,10] and ranges on either side of it.
var AblationBounds = []int{1, 2, 3, 5, 10, 20, 50}

// AblationPairResult is one ISP pair's streamed contribution to the §5
// preference-range ablation: the negotiated total gain under each bound.
type AblationPairResult struct {
	// Pair names the ISP pair ("ispA-ispB").
	Pair string `json:"pair"`
	// Bounds are the preference bounds P; GainNeg[i] is the total gain
	// over default routing negotiated under Bounds[i].
	Bounds  []int     `json:"bounds"`
	GainNeg []float64 `json:"gain_negotiated"`
}

// AblationStream runs the §5 preference-range ablation — the paper's
// observation that "increasing the range [beyond -10,10] does not lead
// to noticeable increase in performance". It visits DistanceStream's
// pairs and workloads and negotiates each pair once per bound, with no
// baselines, delivering the gains to sink in pair order without
// retaining them.
func AblationStream(ds *Dataset, opt Options, bounds []int, sink func(idx int, r *AblationPairResult) error) error {
	opt = opt.withDefaults()
	pairs := selectPairs(ds.DistancePairs(), opt)
	return forEachPair(pairs, ds, opt, saltDistance, traffic.Identical,
		func(job pairJob) (*AblationPairResult, error) {
			ps := job.ps
			// Distance evaluators are stateless, so one pair of them
			// serves every bound; only their P changes.
			evalA := nexit.NewDistanceEvaluator(ps.s, nexit.SideA, 0)
			defer evalA.Release()
			evalB := nexit.NewDistanceEvaluator(ps.s, nexit.SideB, 0)
			defer evalB.Release()
			cfg := nexit.DefaultDistanceConfig()
			out := &AblationPairResult{
				Pair:    pairLabel(ps.s.Pair),
				Bounds:  bounds,
				GainNeg: make([]float64, len(bounds)),
			}
			for i, p := range bounds {
				cfg.PrefBound, evalA.P, evalB.P = p, p, p
				neg, err := nexit.Negotiate(cfg, evalA, evalB, ps.items, ps.defaults, ps.s.NumAlternatives())
				if err != nil {
					return nil, err
				}
				total, _, _ := ps.distances(neg.Assign)
				out.GainNeg[i] = metrics.GainPercent(job.defTotal, total)
			}
			return out, nil
		},
		sink)
}
