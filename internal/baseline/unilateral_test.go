package baseline

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/capacity"
	"repro/internal/gen"
	"repro/internal/pairsim"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// parentChainLinks returns the links of the shortest path from src to
// dst, in link-index order, as the table's parent-chain walk (AddLoad)
// loads them: the link set the old Table.PathLinks returned. Only the
// order differs, and maxIncreaseOnPath does not depend on it.
func parentChainLinks(tab *routing.Table, src, dst int) []int {
	marks := make([]float64, len(tab.ISP.Links))
	tab.AddLoad(marks, src, dst, 1)
	var links []int
	for l, m := range marks {
		if m != 0 {
			links = append(links, l)
		}
	}
	return links
}

// maxIncreaseOnPath is the []int form of metrics.MaxIncreaseOnPath32
// UnilateralUpstream priced with before it read index rows.
func maxIncreaseOnPath(load, capv []float64, links []int, delta float64) float64 {
	var m float64
	for _, li := range links {
		if capv[li] <= 0 {
			continue
		}
		if r := (load[li] + delta) / capv[li]; r > m {
			m = r
		}
	}
	return m
}

// unilateralParentChain is UnilateralUpstream as it was before it read
// index rows: a reflection-swapped stable sort, fresh path slices per
// alternative and a parent-chain walk to load the chosen path.
func unilateralParentChain(s *pairsim.System, flows []traffic.Flow, loadUp, capUp []float64) pairsim.Assignment {
	assign := assignmentFor(flows)
	load := append([]float64(nil), loadUp...)
	order := append([]traffic.Flow(nil), flows...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Size > order[j].Size })
	for _, f := range order {
		bestK, bestCost := -1, 0.0
		for k := 0; k < s.NumAlternatives(); k++ {
			links := parentChainLinks(s.Up, f.Src, s.Pair.Interconnections[k].APoP)
			cost := maxIncreaseOnPath(load, capUp, links, f.Size)
			if bestK == -1 || cost < bestCost {
				bestK, bestCost = k, cost
			}
		}
		assign[f.ID] = bestK
		s.Up.AddLoad(load, f.Src, s.Pair.Interconnections[bestK].APoP, f.Size)
	}
	return assign
}

// TestUnilateralMatchesParentChain holds UnilateralUpstream to its
// parent-chain form over every failure case of the 18-ISP dataset (a
// seeded 12 under -short), with the inputs the Figure 8 driver gives it:
// the failed interconnection's flows, every other flow as fixed load,
// and capacities from the pre-failure early-exit loads. Both must assign
// every flow alike.
func TestUnilateralMatchesParentChain(t *testing.T) {
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 18
	isps, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := pairsim.NewTableCache()
	type failureCase struct {
		name           string
		s              *pairsim.System
		flows          []traffic.Flow
		fixedUp, capUp []float64
	}
	var cases []failureCase
	for _, pair := range topology.AllPairs(isps, 3, true) {
		s := pairsim.New(pair, cache)
		w := traffic.New(pair.A, pair.B, traffic.Gravity, nil)
		pre := EarlyExit(s, w.Flows)
		loadUp, _ := s.Loads(w.Flows, pre)
		capUp := capacity.Assign(loadUp, capacity.Options{})
		for k := 0; k < pair.NumInterconnections(); k++ {
			c := failureCase{
				name:    fmt.Sprintf("%s failing %d", pair, k),
				s:       pairsim.New(pair.WithoutInterconnection(k), cache),
				fixedUp: make([]float64, len(pair.A.Links)),
				capUp:   capUp,
			}
			fixedDown := make([]float64, len(pair.B.Links))
			for _, f := range w.Flows {
				switch alt := pre[f.ID]; {
				case alt == k:
					c.flows = append(c.flows, f)
				case alt > k:
					c.s.AddFlowLoad(c.fixedUp, fixedDown, f, alt-1)
				default:
					c.s.AddFlowLoad(c.fixedUp, fixedDown, f, alt)
				}
			}
			if len(c.flows) > 0 {
				cases = append(cases, c)
			}
		}
	}
	if len(cases) < 40 {
		t.Fatalf("%d failure cases, want the 18-ISP dataset's bandwidth cases", len(cases))
	}
	if testing.Short() {
		rng := rand.New(rand.NewSource(3))
		rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
		cases = cases[:12]
	}
	flows := 0
	for _, c := range cases {
		got := UnilateralUpstream(c.s, c.flows, c.fixedUp, c.capUp)
		want := unilateralParentChain(c.s, c.flows, c.fixedUp, c.capUp)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: UnilateralUpstream %v, parent chain %v", c.name, got, want)
		}
		flows += len(c.flows)
	}
	t.Logf("%d cases, %d flows assigned alike", len(cases), flows)
}
