package nexit_test

import (
	"fmt"

	"repro/internal/nexit"
	"repro/internal/traffic"
)

// Example negotiates two flows between ISPs with hand-written preference
// tables: one flow is a mutual win, the other a trade where A concedes a
// little for B's large gain. The engine clears the trade first (largest
// joint gain) while A still has its own win to look forward to — the
// paper's "trade minor losses on some flows for significant gains on
// others".
func Example() {
	evalA := &nexit.StaticEvaluator{NumAlts: 2, Table: map[int][]int{
		0: {0, 4},  // flow 0: A gains 4 on alternative 1
		1: {0, -1}, // flow 1: A concedes 1
	}}
	evalB := &nexit.StaticEvaluator{NumAlts: 2, Table: map[int][]int{
		0: {0, 2}, // flow 0: B gains too
		1: {0, 8}, // flow 1: B gains 8
	}}
	items := []nexit.Item{
		{ID: 0, Flow: traffic.Flow{ID: 0, Size: 1}},
		{ID: 1, Flow: traffic.Flow{ID: 1, Size: 1}},
	}
	defaults := []int{0, 0}

	res, err := nexit.Negotiate(nexit.DefaultDistanceConfig(), evalA, evalB, items, defaults, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("assignment:", res.Assign)
	fmt.Println("gains:", res.GainA, res.GainB)
	for _, p := range res.Transcript {
		fmt.Printf("round %d: ISP-%v proposes item %d -> alt %d (A %+d, B %+d)\n",
			p.Round, p.Proposer, p.ItemID, p.Alt, p.PrefA, p.PrefB)
	}
	// Output:
	// assignment: [1 1]
	// gains: 3 10
	// round 0: ISP-A proposes item 1 -> alt 1 (A -1, B +8)
	// round 1: ISP-B proposes item 0 -> alt 1 (A +4, B +2)
}

// ExampleConfig shows the parameters two ISPs agree on before they
// negotiate. The round rules of paper §4 are fixed: alternate turns,
// max-sum proposals, accept unless vetoed, early termination.
func ExampleConfig() {
	cfg := nexit.Config{
		PrefBound:        10,   // classes live in [-10, 10]
		ReassignFraction: 0.05, // recollect classes after each 5% of the traffic
		ExtraDeficitA:    3,    // A repays 3 classes of credit banked earlier
	}
	fmt.Println(cfg.Validate(), cfg.PrefBound, cfg.ReassignFraction, cfg.ExtraDeficitA, cfg.ExtraDeficitB)
	// Output: <nil> 10 0.05 3 0
}
