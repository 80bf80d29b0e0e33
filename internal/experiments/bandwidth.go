package experiments

import (
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/capacity"
	"repro/internal/metrics"
	"repro/internal/nexit"
	"repro/internal/optimal"
	"repro/internal/pairsim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// BandwidthOptions extends Options with the §5.2 modeling knobs the
// paper reports testing for robustness.
type BandwidthOptions struct {
	Options
	// Workload selects the flow-size model (default Gravity).
	Workload traffic.Model
	// Capacity configures link-capacity assignment (default: median rule
	// with upgrade, no discretization).
	Capacity capacity.Options
	// MaxFailures bounds the number of failure cases processed (0 = all).
	MaxFailures int
	// UseFortzThorup switches the ISPs' bandwidth preference metric from
	// max-load-increase to the Fortz–Thorup piecewise-linear cost (the
	// paper's alternate metric).
	UseFortzThorup bool
}

// failureCase holds the state of one (pair, failed interconnection)
// scenario: survivor system, impacted flows re-indexed densely, fixed
// loads from unaffected traffic, and capacities.
type failureCase struct {
	pair               *topology.Pair // the original (pre-failure) pair
	failed             int            // index of the failed interconnection
	s2                 *pairsim.System
	impacted           []traffic.Flow
	items              []nexit.Item
	defaults           []int
	fixedUp, fixedDown []float64
	capUp, capDown     []float64
	defAssign          pairsim.Assignment
	defUp, defDown     float64 // post-failure MELs under default routing
}

// preFailure is a pair's network before any failure, which every
// failure case of the pair shares: the A->B workload, its early-exit
// routing and the link capacities proportional to the resulting loads
// ("capacities proportional to the load before the failure", §5.2).
type preFailure struct {
	pair           *topology.Pair
	cache          *pairsim.TableCache
	flows          []traffic.Flow
	pre            pairsim.Assignment
	capUp, capDown []float64
}

// newPreFailure builds the pair's pre-failure network. rng draws the
// workload under traffic.UniformRandom, once per pair.
func newPreFailure(pair *topology.Pair, cache *pairsim.TableCache, model traffic.Model, capOpts capacity.Options, rng *rand.Rand) *preFailure {
	s := pairsim.New(pair, cache)
	w := traffic.New(pair.A, pair.B, model, rng)
	pre := baseline.EarlyExit(s, w.Flows)
	loadUp0, loadDown0 := s.Loads(w.Flows, pre)
	return &preFailure{
		pair:    pair,
		cache:   cache,
		flows:   w.Flows,
		pre:     pre,
		capUp:   capacity.Assign(loadUp0, capOpts),
		capDown: capacity.Assign(loadDown0, capOpts),
	}
}

// failureCase simulates the failure of interconnection k of the pair
// for traffic flowing A->B, per the paper's §5.2 methodology. Returns
// nil when no flow is impacted.
func (p *preFailure) failureCase(k int) *failureCase {
	pair, cache, pre := p.pair, p.cache, p.pre
	fc := &failureCase{
		pair:    pair,
		failed:  k,
		capUp:   p.capUp,
		capDown: p.capDown,
	}

	// Partition flows into impacted (were using the failed
	// interconnection) and unaffected.
	var unaffected []traffic.Flow
	for _, f := range p.flows {
		if pre[f.ID] == k {
			fc.impacted = append(fc.impacted, f)
		} else {
			unaffected = append(unaffected, f)
		}
	}
	if len(fc.impacted) == 0 {
		return nil
	}

	// Survivor system: interconnection k removed; unaffected flows keep
	// their paths (indices above k shift down by one).
	fc.s2 = pairsim.New(pair.WithoutInterconnection(k), cache)
	fc.fixedUp = make([]float64, len(pair.A.Links))
	fc.fixedDown = make([]float64, len(pair.B.Links))
	for _, f := range unaffected {
		newIdx := pre[f.ID]
		if newIdx > k {
			newIdx--
		}
		fc.s2.AddFlowLoad(fc.fixedUp, fc.fixedDown, f, newIdx)
	}

	// Re-index impacted flows densely for the negotiation items.
	fc.items = make([]nexit.Item, len(fc.impacted))
	fc.defaults = make([]int, len(fc.impacted))
	reIndexed := make([]traffic.Flow, len(fc.impacted))
	for i, f := range fc.impacted {
		f.ID = i
		reIndexed[i] = f
		fc.items[i] = nexit.Item{ID: i, Flow: f, Dir: nexit.AtoB}
		fc.defaults[i] = fc.s2.EarlyExit(f)
	}
	fc.impacted = reIndexed

	// Default post-failure routing: early exit over survivors.
	fc.defAssign = append(pairsim.Assignment(nil), fc.defaults...)
	fc.defUp, fc.defDown = fc.mels(fc.defAssign)
	return fc
}

// mels computes the post-failure MELs in both ISPs for an assignment of
// the impacted flows.
func (fc *failureCase) mels(assign pairsim.Assignment) (up, down float64) {
	loadUp := append([]float64(nil), fc.fixedUp...)
	loadDown := append([]float64(nil), fc.fixedDown...)
	for _, f := range fc.impacted {
		fc.s2.AddFlowLoad(loadUp, loadDown, f, assign[f.ID])
	}
	return metrics.MEL(loadUp, fc.capUp), metrics.MEL(loadDown, fc.capDown)
}

// downDistance sums the impacted flows' distance inside the downstream
// ISP under an assignment (for the Figure 9 right panel).
func (fc *failureCase) downDistance(assign pairsim.Assignment) float64 {
	var sum float64
	for _, f := range fc.impacted {
		sum += fc.s2.DownDistKm(f, assign[f.ID])
	}
	return sum
}

// loadEvaluator is a load metric's evaluator. Negotiations commit load
// into it, so a case reuses it only after a Reset to the case's fixed
// load, which is exactly the state the constructor builds.
type loadEvaluator interface {
	nexit.Evaluator
	Reset(load []float64)
	Release()
}

// newBandwidthEvaluator builds the upstream or downstream bandwidth
// evaluator for a failure case.
func (fc *failureCase) newBandwidthEvaluator(side nexit.Side, p int, useFT bool) loadEvaluator {
	load, capv := fc.fixedUp, fc.capUp
	if side == nexit.SideB {
		load, capv = fc.fixedDown, fc.capDown
	}
	if useFT {
		return nexit.NewFortzThorupEvaluator(fc.s2, side, p, load, capv)
	}
	return nexit.NewBandwidthEvaluator(fc.s2, side, p, load, capv)
}

// BandwidthCaseResult is one failure case's streamed contribution to
// the §5.2 experiments (Figures 7, 8, 9, 11), computed concurrently and
// delivered in (pair, interconnection) order.
type BandwidthCaseResult struct {
	// Pair names the ISP pair ("ispA-ispB") and FailedInterconnection
	// the hypothesized failure, making streamed records
	// self-describing.
	Pair                  string `json:"pair"`
	FailedInterconnection int    `json:"failed_interconnection"`
	// Figure 7: MEL ratios to the LP optimum.
	UpDef   float64 `json:"up_default"`
	UpNeg   float64 `json:"up_negotiated"`
	DownDef float64 `json:"down_default"`
	DownNeg float64 `json:"down_negotiated"`
	// NonDefault is the fraction of impacted flows negotiation moved off
	// the post-failure default.
	NonDefault float64 `json:"non_default_fraction"`
	// Figure 8: downstream MEL under unilateral upstream optimization,
	// relative to default.
	UnilateralDownRatio float64 `json:"unilateral_down_ratio"`
	// Figure 9: diverse criteria. The diverse default baseline is UpDef
	// (the same pre-negotiation state), so the record carries it once.
	DiverseUpNeg    float64 `json:"diverse_up_negotiated"`
	DiverseDownGain float64 `json:"diverse_down_gain"`
	// Figure 11: the upstream cheats.
	CheatUp   float64 `json:"cheat_up"`
	CheatDown float64 `json:"cheat_down"`
}

// BandwidthStream runs the §5.2 failure experiments (Figures 7, 8, 9,
// 11), delivering each failure case's result to sink strictly in (pair,
// interconnection) order without retaining it. sink may return
// runner.ErrStop to cancel the remaining cases without error. Failure
// cases are evaluated concurrently per pair (Options.Workers) with
// results identical for every worker count. Returns the number of cases
// delivered.
func BandwidthStream(ds *Dataset, opt BandwidthOptions, sink func(idx int, r *BandwidthCaseResult) error) (int, error) {
	opt.Options = opt.Options.withDefaults()
	cfg := nexit.DefaultBandwidthConfig()
	cfg.PrefBound = prefBound

	return forEachFailureCase(ds, opt, saltBandwidth,
		func(fc *failureCase) (*BandwidthCaseResult, error) {
			// Globally optimal (fractional LP across both ISPs).
			lp, err := optimal.Bandwidth(fc.s2, fc.impacted, fc.fixedUp, fc.fixedDown, fc.capUp, fc.capDown)
			if err != nil {
				return nil, err
			}

			// Negotiated: both ISPs use the bandwidth metric.
			evalA := fc.newBandwidthEvaluator(nexit.SideA, prefBound, opt.UseFortzThorup)
			defer evalA.Release()
			evalB := fc.newBandwidthEvaluator(nexit.SideB, prefBound, opt.UseFortzThorup)
			defer evalB.Release()
			neg, err := nexit.Negotiate(cfg, evalA, evalB, fc.items, fc.defaults, fc.s2.NumAlternatives())
			if err != nil {
				return nil, err
			}
			negUp, negDown := fc.mels(neg.Assign)

			out := &BandwidthCaseResult{
				Pair:                  pairLabel(fc.pair),
				FailedInterconnection: fc.failed,
				UpDef:                 metrics.Ratio(fc.defUp, lp.MELUp, 1),
				UpNeg:                 metrics.Ratio(negUp, lp.MELUp, 1),
				DownDef:               metrics.Ratio(fc.defDown, lp.MELDown, 1),
				DownNeg:               metrics.Ratio(negDown, lp.MELDown, 1),
			}
			nonDef := 0
			for i := range fc.items {
				if neg.Assign[i] != fc.defaults[i] {
					nonDef++
				}
			}
			out.NonDefault = float64(nonDef) / float64(len(fc.items))

			// Figure 8: unilateral upstream optimization.
			uni := baseline.UnilateralUpstream(fc.s2, fc.impacted, fc.fixedUp, fc.capUp)
			_, uniDown := fc.mels(uni)
			out.UnilateralDownRatio = metrics.Ratio(uniDown, fc.defDown, 1)

			// Figure 9: diverse criteria — upstream bandwidth,
			// downstream distance.
			evalA.Reset(fc.fixedUp)
			evalB9 := nexit.NewDistanceEvaluator(fc.s2, nexit.SideB, prefBound)
			defer evalB9.Release()
			div, err := nexit.Negotiate(cfg, evalA, evalB9, fc.items, fc.defaults, fc.s2.NumAlternatives())
			if err != nil {
				return nil, err
			}
			divUp, _ := fc.mels(div.Assign)
			out.DiverseUpNeg = metrics.Ratio(divUp, lp.MELUp, 1)
			out.DiverseDownGain = metrics.GainPercent(
				fc.downDistance(fc.defAssign), fc.downDistance(div.Assign))

			// Figure 11: the upstream cheats.
			// The cheater's "perfect knowledge" reads the victim's live
			// evaluator, so it stays current as loads change.
			evalA.Reset(fc.fixedUp)
			evalB.Reset(fc.fixedDown)
			cheater := &nexit.CheatEvaluator{Truthful: evalA, Other: evalB, P: prefBound}
			cheat, err := nexit.Negotiate(cfg, cheater, evalB, fc.items, fc.defaults, fc.s2.NumAlternatives())
			if err != nil {
				return nil, err
			}
			cheatUp, cheatDown := fc.mels(cheat.Assign)
			out.CheatUp = metrics.Ratio(cheatUp, lp.MELUp, 1)
			out.CheatDown = metrics.Ratio(cheatDown, lp.MELDown, 1)
			return out, nil
		},
		sink)
}
