package main

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/capacity"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/nexit"
	"repro/internal/optimal"
	"repro/internal/pairsim"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// replica is the harness's copy of the experiment drivers' per-pair and
// per-failure-case bodies (experiments.DistanceStream, BandwidthStream),
// rebuilt from the same public calls in the same order so that a span
// can bracket each call into a layer. Tracing inside the layers is a
// later issue (ROADMAP item 5); until then this copy is what a traced
// pass runs, at Workers=1, and the correctness gate holds it to the
// drivers' bytes: a driver change the replica misses fails the run.
type replica struct {
	t     *tracer
	cache *pairsim.TableCache
	// lazyTables times the first touch of each ISP's routing table (a
	// cold start); on a warmed cache the tables are already there.
	lazyTables bool
	tableSeen  map[*topology.ISP]bool

	// Exact counts over the pass.
	prefsCalls, rounds, reverted, items int
}

// The drivers' per-experiment seed salts (experiments/run.go).
const (
	saltDistance  = 1
	saltBandwidth = 2
)

// tracedEval times an evaluator from outside: it is handed to the
// engine in place of the real one. The engine only ever asks whether an
// evaluator is a nexit.Reverter, and a Revert the real evaluator lacks
// is dropped here exactly as the engine would skip it.
type tracedEval struct {
	rp    *replica
	inner nexit.Evaluator
}

func (e *tracedEval) Prefs(items []nexit.Item, defaults []int) [][]int {
	e.rp.prefsCalls++
	sp := e.rp.t.begin("nexit.prefs")
	defer e.rp.t.end(sp)
	return e.inner.Prefs(items, defaults)
}

func (e *tracedEval) Commit(it nexit.Item, alt int) {
	sp := e.rp.t.begin("nexit.commit")
	e.inner.Commit(it, alt)
	e.rp.t.end(sp)
}

func (e *tracedEval) Revert(it nexit.Item, alt, def int) {
	if r, ok := e.inner.(nexit.Reverter); ok {
		sp := e.rp.t.begin("nexit.revert")
		r.Revert(it, alt, def)
		e.rp.t.end(sp)
	}
}

func (rp *replica) wrap(e nexit.Evaluator) nexit.Evaluator { return &tracedEval{rp: rp, inner: e} }

// negotiate is nexit.Negotiate under a span, counted.
func (rp *replica) negotiate(cfg nexit.Config, evalA, evalB nexit.Evaluator, items []nexit.Item, defaults []int, numAlts int) (*nexit.Result, error) {
	sp := rp.t.begin("nexit.negotiate")
	res, err := nexit.Negotiate(cfg, evalA, evalB, items, defaults, numAlts)
	rp.t.end(sp)
	if err == nil {
		rp.rounds += res.Rounds
		rp.reverted += res.Reverted
		rp.items += len(items)
	}
	return res, err
}

// keyedSelect is the drivers' MaxPairs subsampling: the maxPairs
// smallest runner.PairSeed keys win, in dataset order.
func keyedSelect(pairs []*topology.Pair, maxPairs int, seed int64) []*topology.Pair {
	if maxPairs <= 0 || maxPairs >= len(pairs) {
		return pairs
	}
	order := make([]int, len(pairs))
	keys := make([]int64, len(pairs))
	for i := range pairs {
		order[i] = i
		keys[i] = runner.PairSeed(seed, i)
	}
	sort.Slice(order, func(a, b int) bool {
		if keys[order[a]] != keys[order[b]] {
			return keys[order[a]] < keys[order[b]]
		}
		return order[a] < order[b]
	})
	sel := append([]int(nil), order[:maxPairs]...)
	sort.Ints(sel)
	out := make([]*topology.Pair, len(sel))
	for i, idx := range sel {
		out[i] = pairs[idx]
	}
	return out
}

// allPairs is topology.AllPairs under a span.
func (rp *replica) allPairs(isps []*topology.ISP, minIx int) []*topology.Pair {
	sp := rp.t.begin("topology.allpairs")
	defer rp.t.end(sp)
	return topology.AllPairs(isps, minIx, true)
}

// warmDecision is nexitsim's check before it streams: warm every table
// only when -max-pairs does not bite. Deciding enumerates the pairs.
func (rp *replica) warmDecision(isps []*topology.ISP, maxPairs int) {
	if maxPairs <= 0 || (maxPairs >= len(rp.allPairs(isps, 2)) && maxPairs >= len(rp.allPairs(isps, 3))) {
		rp.cache.Warm(isps, 1)
	}
}

// tables times the first touch of each ISP's routing table.
func (rp *replica) tables(pair *topology.Pair) {
	if !rp.lazyTables {
		return
	}
	if rp.tableSeen == nil {
		rp.tableSeen = make(map[*topology.ISP]bool)
	}
	for _, isp := range []*topology.ISP{pair.A, pair.B} {
		if !rp.tableSeen[isp] {
			rp.tableSeen[isp] = true
			sp := rp.t.begin("routing.table")
			rp.cache.Get(isp)
			rp.t.end(sp)
		}
	}
}

// distanceStream is experiments.DistanceStream at Workers=1.
func (rp *replica) distanceStream(isps []*topology.ISP, opt experiments.Options, sink func(idx int, r *experiments.DistancePairResult) error) error {
	pairs := keyedSelect(rp.allPairs(isps, 2), opt.MaxPairs, opt.Seed)
	delivered := 0
	return runner.ForEachPair(pairs, runner.Options{Workers: 1, Seed: opt.Seed + saltDistance},
		func(_ int, pair *topology.Pair, rng *rand.Rand) (*experiments.DistancePairResult, error) {
			return rp.distancePair(pair, rng)
		},
		func(_ int, r *experiments.DistancePairResult) error {
			if r == nil {
				return nil
			}
			err := sink(delivered, r)
			delivered++
			return err
		})
}

// distancePair is one pair of the §5.1 experiments.
func (rp *replica) distancePair(pair *topology.Pair, rng *rand.Rand) (*experiments.DistancePairResult, error) {
	t := rp.t
	root := t.begin("pair")
	defer t.end(root)

	rp.tables(pair)
	sp := t.begin("pairsim.new")
	s := pairsim.New(pair, rp.cache)
	rev := s.Reverse()
	t.end(sp)
	sp = t.begin("traffic.new")
	wAB := traffic.New(pair.A, pair.B, traffic.Identical, nil)
	wBA := traffic.New(pair.B, pair.A, traffic.Identical, nil)
	t.end(sp)
	items := nexit.Items(wAB.Flows, wBA.Flows)
	defaults := make([]int, len(items))
	sp = t.begin("pairsim.earlyexit")
	for i, it := range items {
		if it.Dir == nexit.AtoB {
			defaults[i] = s.EarlyExit(it.Flow)
		} else {
			defaults[i] = rev.EarlyExit(it.Flow)
		}
	}
	t.end(sp)

	itemDist := func(it nexit.Item, k int) (total, inA, inB float64) {
		if it.Dir == nexit.AtoB {
			inA, inB = s.UpDistKm(it.Flow, k), s.DownDistKm(it.Flow, k)
		} else {
			inB, inA = rev.UpDistKm(it.Flow, k), rev.DownDistKm(it.Flow, k)
		}
		return inA + inB + pair.Interconnections[k].LengthKm, inA, inB
	}
	distances := func(assign []int) (total, inA, inB float64) {
		for i, it := range items {
			d, a, b := itemDist(it, assign[i])
			total += d
			inA += a
			inB += b
		}
		return total, inA, inB
	}
	defTotal, defA, defB := distances(defaults)
	if defTotal == 0 {
		return nil, nil // degenerate co-located pair
	}
	na := s.NumAlternatives()

	sp = t.begin("optimal.distance")
	optAssign := make([]int, len(items))
	for i, it := range items {
		best, bestD := 0, math.Inf(1)
		for k := 0; k < na; k++ {
			if d, _, _ := itemDist(it, k); d < bestD {
				best, bestD = k, d
			}
		}
		optAssign[i] = best
	}
	t.end(sp)

	cfg := nexit.DefaultDistanceConfig()
	cfg.PrefBound = prefBound
	neg, err := rp.negotiate(cfg,
		rp.wrap(nexit.NewDistanceEvaluator(s, nexit.SideA, prefBound)),
		rp.wrap(nexit.NewDistanceEvaluator(s, nexit.SideB, prefBound)),
		items, defaults, na)
	if err != nil {
		return nil, err
	}

	sp = t.begin("baseline")
	dA, dB := baseline.DistanceDeltas(s, items, defaults)
	paretoAssign := baseline.FlowLocal(baseline.FlowPareto, dA, dB, defaults, rng)
	bothAssign := baseline.FlowLocal(baseline.FlowBothBetter, dA, dB, defaults, rng)
	groupAssign, err := baseline.GroupNegotiate(cfg,
		rp.wrap(nexit.NewDistanceEvaluator(s, nexit.SideA, prefBound)),
		rp.wrap(nexit.NewDistanceEvaluator(s, nexit.SideB, prefBound)),
		items, defaults, na, 4)
	t.end(sp)
	if err != nil {
		return nil, err
	}

	optTotal, optA, optB := distances(optAssign)
	negTotal, negA, negB := distances(neg.Assign)
	parTotal, _, _ := distances(paretoAssign)
	bothTotal, _, _ := distances(bothAssign)
	grpTotal, _, _ := distances(groupAssign)
	out := &experiments.DistancePairResult{
		Pair:             pair.A.Name + "-" + pair.B.Name,
		Interconnections: na,
		GainOpt:          metrics.GainPercent(defTotal, optTotal),
		GainNeg:          metrics.GainPercent(defTotal, negTotal),
		GainPareto:       metrics.GainPercent(defTotal, parTotal),
		GainBothBetter:   metrics.GainPercent(defTotal, bothTotal),
		GainGroup4:       metrics.GainPercent(defTotal, grpTotal),
		IndOptA:          metrics.GainPercent(defA, optA),
		IndOptB:          metrics.GainPercent(defB, optB),
		IndNegA:          metrics.GainPercent(defA, negA),
		IndNegB:          metrics.GainPercent(defB, negB),
	}
	nonDefault := 0
	for i, it := range items {
		dDef, _, _ := itemDist(it, defaults[i])
		dNeg, _, _ := itemDist(it, neg.Assign[i])
		dOpt, _, _ := itemDist(it, optAssign[i])
		if dDef > 0 {
			out.FlowGainNeg = append(out.FlowGainNeg, metrics.GainPercent(dDef, dNeg))
			out.FlowGainOpt = append(out.FlowGainOpt, metrics.GainPercent(dDef, dOpt))
		}
		if neg.Assign[i] != defaults[i] {
			nonDefault++
		}
	}
	out.NonDefaultFraction = float64(nonDefault) / float64(len(items))
	return out, nil
}

// failureCase is one (pair, failed interconnection) scenario, as
// experiments.buildFailureCase prepares it.
type failureCase struct {
	rp                 *replica
	pair               *topology.Pair
	failed             int
	s2                 *pairsim.System
	impacted           []traffic.Flow
	items              []nexit.Item
	defaults           []int
	fixedUp, fixedDown []float64
	capUp, capDown     []float64
	defUp, defDown     float64
}

func (rp *replica) buildFailureCase(pair *topology.Pair, k int, model traffic.Model, capOpts capacity.Options, rng *rand.Rand) *failureCase {
	t := rp.t
	sp := t.begin("pairsim.new")
	s := pairsim.New(pair, rp.cache)
	t.end(sp)
	sp = t.begin("traffic.new")
	w := traffic.New(pair.A, pair.B, model, rng)
	t.end(sp)

	sp = t.begin("baseline")
	pre := baseline.EarlyExit(s, w.Flows)
	t.end(sp)
	sp = t.begin("pairsim.loads")
	loadUp0, loadDown0 := s.Loads(w.Flows, pre)
	t.end(sp)
	fc := &failureCase{
		rp: rp, pair: pair, failed: k,
		capUp:   capacity.Assign(loadUp0, capOpts),
		capDown: capacity.Assign(loadDown0, capOpts),
	}

	var unaffected []traffic.Flow
	for _, f := range w.Flows {
		if pre[f.ID] == k {
			fc.impacted = append(fc.impacted, f)
		} else {
			unaffected = append(unaffected, f)
		}
	}
	if len(fc.impacted) == 0 {
		return nil
	}

	sp = t.begin("pairsim.new")
	fc.s2 = pairsim.New(pair.WithoutInterconnection(k), rp.cache)
	t.end(sp)
	fc.fixedUp = make([]float64, len(pair.A.Links))
	fc.fixedDown = make([]float64, len(pair.B.Links))
	sp = t.begin("pairsim.loads")
	for _, f := range unaffected {
		newIdx := pre[f.ID]
		if newIdx > k {
			newIdx--
		}
		fc.s2.AddFlowLoad(fc.fixedUp, fc.fixedDown, f, newIdx)
	}
	t.end(sp)

	fc.items = make([]nexit.Item, len(fc.impacted))
	fc.defaults = make([]int, len(fc.impacted))
	sp = t.begin("pairsim.earlyexit")
	for i, f := range fc.impacted {
		f.ID = i
		fc.impacted[i] = f
		fc.items[i] = nexit.Item{ID: i, Flow: f, Dir: nexit.AtoB}
		fc.defaults[i] = fc.s2.EarlyExit(f)
	}
	t.end(sp)
	fc.defUp, fc.defDown = fc.mels(fc.defaults)
	return fc
}

// mels computes the post-failure maximum excess loads of an assignment.
func (fc *failureCase) mels(assign []int) (up, down float64) {
	sp := fc.rp.t.begin("pairsim.loads")
	defer fc.rp.t.end(sp)
	loadUp := append([]float64(nil), fc.fixedUp...)
	loadDown := append([]float64(nil), fc.fixedDown...)
	for _, f := range fc.impacted {
		fc.s2.AddFlowLoad(loadUp, loadDown, f, assign[f.ID])
	}
	return metrics.MEL(loadUp, fc.capUp), metrics.MEL(loadDown, fc.capDown)
}

func (fc *failureCase) downDistance(assign []int) float64 {
	var sum float64
	for _, f := range fc.impacted {
		sum += fc.s2.DownDistKm(f, assign[f.ID])
	}
	return sum
}

func (fc *failureCase) bandwidthEvaluator(side nexit.Side, useFT bool) nexit.Evaluator {
	load, capv := fc.fixedUp, fc.capUp
	if side == nexit.SideB {
		load, capv = fc.fixedDown, fc.capDown
	}
	if useFT {
		return nexit.NewFortzThorupEvaluator(fc.s2, side, prefBound, load, capv)
	}
	return nexit.NewBandwidthEvaluator(fc.s2, side, prefBound, load, capv)
}

// caseOut is one case's outcome travelling to the ordered reducer.
type caseOut struct {
	res *experiments.BandwidthCaseResult
	err error
}

// bandwidthStream is experiments.BandwidthStream at Workers=1.
func (rp *replica) bandwidthStream(isps []*topology.ISP, opt experiments.BandwidthOptions, sink func(idx int, r *experiments.BandwidthCaseResult) error) (int, error) {
	pairs := keyedSelect(rp.allPairs(isps, 3), opt.MaxPairs, opt.Seed)
	cases := 0
	err := runner.ForEachPair(pairs, runner.Options{Workers: 1, Seed: opt.Seed + saltBandwidth},
		func(_ int, pair *topology.Pair, rng *rand.Rand) ([]caseOut, error) {
			var out []caseOut
			for k := 0; k < pair.NumInterconnections(); k++ {
				if opt.MaxFailures > 0 && len(out) >= opt.MaxFailures {
					break
				}
				root := rp.t.begin("case")
				var o caseOut
				fc := rp.buildFailureCase(pair, k, opt.Workload, opt.Capacity, rng)
				if fc != nil {
					o.res, o.err = rp.bandwidthCase(fc, opt.UseFortzThorup)
				}
				rp.t.end(root)
				if fc == nil {
					continue
				}
				out = append(out, o)
				if o.err != nil {
					break
				}
			}
			return out, nil
		},
		func(_ int, rs []caseOut) error {
			for _, r := range rs {
				if opt.MaxFailures > 0 && cases >= opt.MaxFailures {
					return runner.ErrStop
				}
				if r.err != nil {
					return r.err
				}
				if err := sink(cases, r.res); err != nil {
					if !errors.Is(err, runner.ErrStop) {
						return err
					}
					cases++
					return runner.ErrStop
				}
				cases++
			}
			return nil
		})
	return cases, err
}

// bandwidthCase is one failure case of the §5.2 experiments.
func (rp *replica) bandwidthCase(fc *failureCase, useFT bool) (*experiments.BandwidthCaseResult, error) {
	t := rp.t
	cfg := nexit.DefaultBandwidthConfig()
	cfg.PrefBound = prefBound
	na := fc.s2.NumAlternatives()

	sp := t.begin("optimal.bandwidth")
	lp, err := optimal.Bandwidth(fc.s2, fc.impacted, fc.fixedUp, fc.fixedDown, fc.capUp, fc.capDown)
	t.end(sp)
	if err != nil {
		return nil, err
	}

	neg, err := rp.negotiate(cfg,
		rp.wrap(fc.bandwidthEvaluator(nexit.SideA, useFT)),
		rp.wrap(fc.bandwidthEvaluator(nexit.SideB, useFT)),
		fc.items, fc.defaults, na)
	if err != nil {
		return nil, err
	}
	negUp, negDown := fc.mels(neg.Assign)
	out := &experiments.BandwidthCaseResult{
		Pair:                  fc.pair.A.Name + "-" + fc.pair.B.Name,
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

	sp = t.begin("baseline")
	uni := baseline.UnilateralUpstream(fc.s2, fc.impacted, fc.fixedUp, fc.capUp)
	t.end(sp)
	_, uniDown := fc.mels(uni)
	out.UnilateralDownRatio = metrics.Ratio(uniDown, fc.defDown, 1)

	div, err := rp.negotiate(cfg,
		rp.wrap(fc.bandwidthEvaluator(nexit.SideA, useFT)),
		rp.wrap(nexit.NewDistanceEvaluator(fc.s2, nexit.SideB, prefBound)),
		fc.items, fc.defaults, na)
	if err != nil {
		return nil, err
	}
	divUp, _ := fc.mels(div.Assign)
	out.DiverseUpNeg = metrics.Ratio(divUp, lp.MELUp, 1)
	out.DiverseDownGain = metrics.GainPercent(fc.downDistance(fc.defaults), fc.downDistance(div.Assign))

	// The cheater reads the victim's live evaluator, so the victim is
	// wrapped once and shared; the cheater's nested Prefs calls show as
	// child spans of its own.
	victim := rp.wrap(fc.bandwidthEvaluator(nexit.SideB, useFT))
	cheater := rp.wrap(&nexit.CheatEvaluator{
		Truthful: fc.bandwidthEvaluator(nexit.SideA, useFT),
		Other:    victim,
		P:        prefBound,
	})
	cheat, err := rp.negotiate(cfg, cheater, victim, fc.items, fc.defaults, na)
	if err != nil {
		return nil, err
	}
	cheatUp, cheatDown := fc.mels(cheat.Assign)
	out.CheatUp = metrics.Ratio(cheatUp, lp.MELUp, 1)
	out.CheatDown = metrics.Ratio(cheatDown, lp.MELDown, 1)
	return out, nil
}

// prefBound is the preference class bound P every workload negotiates
// with (the paper's 10, the drivers' default).
const prefBound = 10

// tracer returns the replica's tracer; a nil replica (an untraced pass
// through the real driver) has none.
func (rp *replica) tracer() *tracer {
	if rp == nil {
		return nil
	}
	return rp.t
}

// engineReadings reports the negotiation counts and timings of a traced
// pass of ops operations; engineS is the engine's self time.
func (rp *replica) engineReadings(ls *layerSet, ops int, engineS float64) {
	n := float64(max(ops, 1))
	ls.value("nexit.prefs_calls_per_op", float64(rp.prefsCalls)/n)
	ls.value("nexit.rounds_per_op", float64(rp.rounds)/n)
	ls.value("nexit.reverted_per_op", float64(rp.reverted)/n)
	neg := rp.t.durations("nexit.negotiate", time.Millisecond)
	ls.samples("nexit.negotiate_ms_p50", neg, 0.5)
	ls.samples("nexit.negotiate_ms_p90", neg, 0.9)
	ls.value("nexit.items_per_engine_s", float64(rp.items)/engineS)
}
