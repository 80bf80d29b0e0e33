// Package baseline implements the non-negotiated routing strategies the
// paper compares against: early-exit (the BGP default), the flow-local
// strategies of §5.1 (flow-Pareto and flow-both-better), unilateral
// upstream optimization (§5.2, Figure 8), and negotiation over separate
// flow groups (§5.1).
package baseline

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/metrics"
	"repro/internal/nexit"
	"repro/internal/pairsim"
	"repro/internal/traffic"
)

// EarlyExit assigns every flow the upstream's closest interconnection —
// today's default routing.
func EarlyExit(s *pairsim.System, flows []traffic.Flow) pairsim.Assignment {
	assign := assignmentFor(flows)
	for _, f := range flows {
		assign[f.ID] = s.EarlyExit(f)
	}
	return assign
}

func assignmentFor(flows []traffic.Flow) pairsim.Assignment {
	maxID := -1
	for _, f := range flows {
		if f.ID > maxID {
			maxID = f.ID
		}
	}
	return pairsim.NewAssignment(maxID + 1)
}

// FlowLocalStrategy selects among the flow-local strategies of §5.1.
type FlowLocalStrategy int

// Flow-local strategies: both "avoid obvious wastage at flow-level" but,
// as the paper shows in Figure 5, neither achieves the potential benefit
// of negotiating across the whole flow set.
const (
	// FlowPareto rejects alternatives that are worse than the default
	// for BOTH ISPs; anything not jointly wasteful is allowed.
	FlowPareto FlowLocalStrategy = iota
	// FlowBothBetter rejects alternatives that are worse for ANY ISP;
	// only alternatives at least as good for both are allowed.
	FlowBothBetter
)

// FlowLocal applies a flow-local strategy to the negotiation items:
// independently for each flow, it picks uniformly at random among the
// alternatives satisfying the strategy's criterion (relative to the
// item's default). deltasA and deltasB give each ISP's per-item,
// per-alternative metric improvement over the default (positive =
// better), as produced by an evaluator's RawDeltas.
func FlowLocal(strategy FlowLocalStrategy, deltasA, deltasB [][]float64, defaults []int, rng *rand.Rand) []int {
	out := make([]int, len(defaults))
	for i := range defaults {
		// Count the candidates, draw one, then find it: the same draw as
		// indexing a list of them, without building the list.
		candidates := 0
		for k := range deltasA[i] {
			if strategy.allows(deltasA[i][k], deltasB[i][k]) {
				candidates++
			}
		}
		out[i] = defaults[i]
		if candidates == 0 {
			continue
		}
		pick := rng.Intn(candidates)
		for k := range deltasA[i] {
			if strategy.allows(deltasA[i][k], deltasB[i][k]) {
				if pick == 0 {
					out[i] = k
					break
				}
				pick--
			}
		}
	}
	return out
}

// allows reports whether the strategy lets a flow take an alternative
// that changes the two ISPs' metrics by dA and dB.
func (s FlowLocalStrategy) allows(dA, dB float64) bool {
	switch s {
	case FlowPareto:
		return !(dA < 0 && dB < 0)
	case FlowBothBetter:
		return dA >= 0 && dB >= 0
	}
	return false
}

// DistanceDeltas returns, for each item and alternative, each ISP's
// distance improvement over the item's default alternative (positive =
// shorter path inside that ISP): the RawDeltas of each side's
// nexit.DistanceEvaluator, in rows no other caller holds.
func DistanceDeltas(s *pairsim.System, items []nexit.Item, defaults []int) (deltasA, deltasB [][]float64) {
	return nexit.NewDistanceEvaluator(s, nexit.SideA, 0).RawDeltas(items, defaults),
		nexit.NewDistanceEvaluator(s, nexit.SideB, 0).RawDeltas(items, defaults)
}

// UnilateralUpstream reroutes the flows purely in the upstream's
// interest: processing flows in descending size, each flow takes the
// interconnection minimizing the worst load-to-capacity ratio along its
// upstream path given the loads accumulated so far. The downstream is
// not consulted — the scenario of the paper's Figure 8.
func UnilateralUpstream(s *pairsim.System, flows []traffic.Flow, loadUp, capUp []float64) pairsim.Assignment {
	assign := assignmentFor(flows)
	load := append([]float64(nil), loadUp...)
	order := append([]traffic.Flow(nil), flows...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Size > order[j].Size })
	for _, f := range order {
		bestK, bestCost := -1, 0.0
		for k := 0; k < s.NumAlternatives(); k++ {
			links := s.Up.PathLinks(f.Src, s.Pair.Interconnections[k].APoP)
			cost := metrics.MaxIncreaseOnPath(load, capUp, links, f.Size)
			if bestK == -1 || cost < bestCost {
				bestK, bestCost = k, cost
			}
		}
		assign[f.ID] = bestK
		s.Up.AddLoad(load, f.Src, s.Pair.Interconnections[bestK].APoP, f.Size)
	}
	return assign
}

// GroupNegotiate splits the items into the given number of contiguous
// groups and negotiates each group separately with fresh engine state,
// as in the paper's §5.1 ablation ("breaking down the set of flows into
// several groups and negotiating within each group separately ... does
// not provide as much benefit as negotiating over the entire set").
// Evaluators are shared across groups, so stateful (bandwidth)
// evaluators carry committed load forward.
func GroupNegotiate(cfg nexit.Config, evalA, evalB nexit.Evaluator, items []nexit.Item, defaults []int, numAlts, groups int) ([]int, error) {
	if groups <= 0 {
		return nil, fmt.Errorf("baseline: groups must be positive")
	}
	assign := append([]int(nil), defaults...)
	size := (len(items) + groups - 1) / groups
	// Negotiate keeps no reference to its items, so every group reuses
	// the first group's buffers.
	subBuf, subDefBuf := make([]nexit.Item, size), make([]int, size)
	for start := 0; start < len(items); start += size {
		end := min(start+size, len(items))
		sub, subDef := subBuf[:end-start], subDefBuf[:end-start]
		for i := start; i < end; i++ {
			sub[i-start] = nexit.Item{ID: i - start, Flow: items[i].Flow, Dir: items[i].Dir}
			subDef[i-start] = defaults[i]
		}
		res, err := nexit.Negotiate(cfg, evalA, evalB, sub, subDef, numAlts)
		if err != nil {
			return nil, err
		}
		for i := range sub {
			assign[start+i] = res.Assign[i]
		}
	}
	return assign, nil
}
