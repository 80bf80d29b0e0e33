package experiments

import (
	"repro/internal/metrics"
	"repro/internal/nexit"
	"repro/internal/traffic"
)

// The paper's footnote 2: "By using more flexible flow definitions,
// Nexit can be extended to destination-based routing ... Empirical
// evaluation with destination-based routing yields results similar to
// those in Section 5." Under destination-based routing an ISP cannot
// route flows with the same destination but different sources
// independently (no MPLS), so the negotiation items are destinations:
// all flows toward one destination PoP share an interconnection.

// destEvaluator aggregates a side's distance preferences over all flows
// of a destination group: the metric of a group alternative is the sum
// of the member flows' distances inside the own network.
type destEvaluator struct {
	inner  *nexit.DistanceEvaluator
	groups [][]nexit.Item // member flows per group item ID
	p      int
}

// Prefs implements nexit.Evaluator: group deltas are sums of member
// deltas (classes stay composable exactly as for single flows), and all
// group rows are quantized together so classes remain comparable across
// groups.
func (e *destEvaluator) Prefs(items []nexit.Item, defaults []int) [][]int {
	deltas := make([][]float64, len(items))
	for gi, g := range items {
		members := e.groups[g.ID]
		memberDefaults := make([]int, len(members))
		for i := range members {
			memberDefaults[i] = defaults[gi]
		}
		memberDeltas := e.inner.RawDeltas(members, memberDefaults)
		sum := make([]float64, len(memberDeltas[0]))
		for _, row := range memberDeltas {
			for k, d := range row {
				sum[k] += d
			}
		}
		deltas[gi] = sum
	}
	return nexit.MapDeltas(deltas, e.p)
}

// Commit implements nexit.Evaluator (distance is stateless).
func (e *destEvaluator) Commit(nexit.Item, int) {}

// DestinationPairResult is one ISP pair's streamed contribution to the
// footnote-2 comparison.
type DestinationPairResult struct {
	// Pair names the ISP pair ("ispA-ispB").
	Pair        string  `json:"pair"`
	GainSrcDst  float64 `json:"gain_src_dst"`
	GainDstOnly float64 `json:"gain_dst_only"`
}

// DestinationStream runs the footnote-2 comparison, delivering each
// pair's result to sink in pair order without retaining it.
func DestinationStream(ds *Dataset, opt Options, sink func(idx int, r *DestinationPairResult) error) error {
	opt = opt.withDefaults()
	pairs := selectPairs(ds.DistancePairs(), opt)
	return forEachPair(pairs, ds, opt, saltDestination, traffic.Identical,
		func(job pairJob) (*DestinationPairResult, error) {
			ps := job.ps
			na := ps.s.NumAlternatives()
			cfg := nexit.DefaultDistanceConfig()
			cfg.PrefBound = prefBound

			// Source-destination (per-flow) negotiation.
			evalA := nexit.NewDistanceEvaluator(ps.s, nexit.SideA, prefBound)
			defer evalA.Release()
			evalB := nexit.NewDistanceEvaluator(ps.s, nexit.SideB, prefBound)
			defer evalB.Release()
			perFlow, err := nexit.Negotiate(cfg, evalA, evalB, ps.items, ps.defaults, na)
			if err != nil {
				return nil, err
			}

			// Destination-based: group items by (direction, destination).
			// A group's default is the majority default of its members (a
			// destination-routed network has ONE current exit per
			// destination; majority is the closest single approximation of
			// the per-flow early-exit state).
			type gkey struct {
				dir nexit.Direction
				dst int
			}
			groupIdx := map[gkey]int{}
			var groups [][]nexit.Item
			var groupDefaultVotes []map[int]int
			for i, it := range ps.items {
				k := gkey{dir: it.Dir, dst: it.Flow.Dst}
				gi, ok := groupIdx[k]
				if !ok {
					gi = len(groups)
					groupIdx[k] = gi
					groups = append(groups, nil)
					groupDefaultVotes = append(groupDefaultVotes, map[int]int{})
				}
				groups[gi] = append(groups[gi], it)
				groupDefaultVotes[gi][ps.defaults[i]]++
			}
			groupItems := make([]nexit.Item, len(groups))
			groupDefaults := make([]int, len(groups))
			for gi, members := range groups {
				var size float64
				for _, m := range members {
					size += m.Flow.Size
				}
				groupItems[gi] = nexit.Item{
					ID:   gi,
					Flow: members[0].Flow, // representative; evaluators use groups
					Dir:  members[0].Dir,
				}
				groupItems[gi].Flow.ID = gi
				groupItems[gi].Flow.Size = size
				best, bestVotes := 0, -1
				for alt, votes := range groupDefaultVotes[gi] {
					if votes > bestVotes || (votes == bestVotes && alt < best) {
						best, bestVotes = alt, votes
					}
				}
				groupDefaults[gi] = best
			}
			gEvalA := &destEvaluator{inner: evalA, groups: groups, p: prefBound}
			gEvalB := &destEvaluator{inner: evalB, groups: groups, p: prefBound}
			grouped, err := nexit.Negotiate(cfg, gEvalA, gEvalB, groupItems, groupDefaults, na)
			if err != nil {
				return nil, err
			}

			// Expand group assignments (negotiated and default) to flows.
			expand := func(groupAssign []int) []int {
				flowAssign := make([]int, len(ps.items))
				for gi, members := range groups {
					for _, m := range members {
						flowAssign[m.ID] = groupAssign[gi]
					}
				}
				return flowAssign
			}
			perFlowTotal, _, _ := ps.distances(perFlow.Assign)
			groupedTotal, _, _ := ps.distances(expand(grouped.Assign))
			groupedDefTotal, _, _ := ps.distances(expand(groupDefaults))
			return &DestinationPairResult{
				Pair:        pairLabel(ps.s.Pair),
				GainSrcDst:  metrics.GainPercent(job.defTotal, perFlowTotal),
				GainDstOnly: metrics.GainPercent(groupedDefTotal, groupedTotal),
			}, nil
		},
		sink)
}
