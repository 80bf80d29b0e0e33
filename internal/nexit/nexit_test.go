package nexit

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/pairsim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// scriptedEvaluator lets tests provide preference lists that change as
// flows are committed, like ISP-B in the paper's Figure 3 example.
type scriptedEvaluator struct {
	prefs   func(committed map[int]int, it Item) []int
	commits map[int]int // item ID -> alt
}

func newScripted(f func(committed map[int]int, it Item) []int) *scriptedEvaluator {
	return &scriptedEvaluator{prefs: f, commits: map[int]int{}}
}

func (e *scriptedEvaluator) Prefs(items []Item, defaults []int) [][]int {
	out := make([][]int, len(items))
	for i, it := range items {
		out[i] = e.prefs(e.commits, it)
	}
	return out
}

func (e *scriptedEvaluator) Commit(it Item, alt int) { e.commits[it.ID] = alt }

// TestFigure3Example reproduces the paper's worked example (§4.1, Figures
// 2 and 3). Two flows f2 (item 0) and f3 (item 1), two alternatives: top
// (alt 0) and bottom (alt 1); both default to bottom. ISP-A is averse to
// f2 using the top interconnection; ISP-B is initially indifferent but,
// once f2 is committed to the bottom link, prefers f3 on top. The
// expected outcome is Figure 2e: f2 on bottom, f3 on top.
func TestFigure3Example(t *testing.T) {
	// ISP-A's preferences are static: f2 = (-1 top, 0 bottom), f3 = (0,0).
	evalA := &StaticEvaluator{NumAlts: 2, Table: map[int][]int{
		0: {-1, 0},
		1: {0, 0},
	}}
	// ISP-B reassigns: indifferent until f2 is on the bottom link, then
	// prefers f3 on top (+1) over bottom (0).
	evalB := newScripted(func(committed map[int]int, it Item) []int {
		if it.ID == 1 {
			if alt, ok := committed[0]; ok && alt == 1 {
				return []int{1, 0}
			}
		}
		return []int{0, 0}
	})

	items := []Item{
		{ID: 0, Flow: traffic.Flow{ID: 0, Size: 1}, Dir: AtoB},
		{ID: 1, Flow: traffic.Flow{ID: 1, Size: 1}, Dir: AtoB},
	}
	defaults := []int{1, 1} // both flows default to the bottom link

	cfg := Config{
		PrefBound: 1, // the example uses preference range [-1, 1]
		// Reassign after every flow (each is 50% of the traffic).
		ReassignFraction: 0.5,
	}
	res, err := Negotiate(cfg, evalA, evalB, items, defaults, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] != 1 {
		t.Errorf("f2 assigned to alt %d, want bottom (1)", res.Assign[0])
	}
	if res.Assign[1] != 0 {
		t.Errorf("f3 assigned to alt %d, want top (0) — Figure 2e", res.Assign[1])
	}
	if res.GainA != 0 || res.GainB != 1 {
		t.Errorf("gains = (%d, %d), want (0, 1)", res.GainA, res.GainB)
	}
	// Round 1 is proposed by A (f2 -> bottom), round 2 by B (f3 -> top).
	if len(res.Transcript) != 2 {
		t.Fatalf("transcript has %d rounds, want 2", len(res.Transcript))
	}
	if res.Transcript[0].Proposer != SideA || res.Transcript[0].ItemID != 0 || res.Transcript[0].Alt != 1 {
		t.Errorf("round 1 = %+v, want A proposing f2 bottom", res.Transcript[0])
	}
	if res.Transcript[1].Proposer != SideB || res.Transcript[1].ItemID != 1 || res.Transcript[1].Alt != 0 {
		t.Errorf("round 2 = %+v, want B proposing f3 top", res.Transcript[1])
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{PrefBound: 0},
		{PrefBound: 10, ReassignFraction: -0.1},
		{PrefBound: 10, ReassignFraction: 1.5},
	}
	ev := &StaticEvaluator{NumAlts: 1}
	for i, cfg := range cases {
		if _, err := Negotiate(cfg, ev, ev, nil, nil, 1); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestNegotiateInputValidation(t *testing.T) {
	cfg := DefaultDistanceConfig()
	ev := &StaticEvaluator{NumAlts: 2}
	items := []Item{{ID: 0, Flow: traffic.Flow{Size: 1}}}
	if _, err := Negotiate(cfg, ev, ev, items, []int{0, 1}, 2); err == nil {
		t.Error("mismatched defaults accepted")
	}
	if _, err := Negotiate(cfg, ev, ev, items, []int{5}, 2); err == nil {
		t.Error("out-of-range default accepted")
	}
	if _, err := Negotiate(cfg, ev, ev, items, []int{0}, 0); err == nil {
		t.Error("zero alternatives accepted")
	}
	bad := []Item{{ID: 7, Flow: traffic.Flow{Size: 1}}}
	if _, err := Negotiate(cfg, ev, ev, bad, []int{0}, 2); err == nil {
		t.Error("non-dense item IDs accepted")
	}
}

func TestMaxSumPicksJointBest(t *testing.T) {
	evalA := &StaticEvaluator{NumAlts: 3, Table: map[int][]int{
		0: {0, 2, -1},
		1: {0, 1, 1},
	}}
	evalB := &StaticEvaluator{NumAlts: 3, Table: map[int][]int{
		0: {0, 3, 1},
		1: {0, -1, 4},
	}}
	items := []Item{
		{ID: 0, Flow: traffic.Flow{ID: 0, Size: 1}},
		{ID: 1, Flow: traffic.Flow{ID: 1, Size: 1}},
	}
	res, err := Negotiate(DefaultDistanceConfig(), evalA, evalB, items, []int{0, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Item 0 best sum = alt 1 (2+3=5); item 1 best sum = alt 2 (1+4=5).
	if res.Assign[0] != 1 || res.Assign[1] != 2 {
		t.Errorf("assign = %v, want [1 2]", res.Assign)
	}
	if res.GainA != 3 || res.GainB != 7 {
		t.Errorf("gains = (%d,%d), want (3,7)", res.GainA, res.GainB)
	}
	if res.Stopped != StopAllNegotiated {
		t.Errorf("stop reason = %v", res.Stopped)
	}
}

func TestStopEarlyBlocksDraggedLosses(t *testing.T) {
	// A has nothing to gain anywhere and the best joint proposal is
	// -1 for A / +3 for B: with early termination A walks away.
	evalA := &StaticEvaluator{NumAlts: 2, Table: map[int][]int{0: {0, -1}}}
	evalB := &StaticEvaluator{NumAlts: 2, Table: map[int][]int{0: {0, 3}}}
	items := []Item{{ID: 0, Flow: traffic.Flow{Size: 1}}}
	res, err := Negotiate(DefaultDistanceConfig(), evalA, evalB, items, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] != 0 {
		t.Errorf("assign = %v, want default", res.Assign)
	}
	if res.GainA != 0 {
		t.Errorf("GainA = %d, want 0 (A protected)", res.GainA)
	}
	if res.Stopped != StopSideCannotGain {
		t.Errorf("stop reason = %v, want side-cannot-gain", res.Stopped)
	}
}

func TestStopEarlyAllowsNeutralCompromise(t *testing.T) {
	// A gains nothing anywhere but the proposal is neutral for it; the
	// negotiation must proceed (Figure 3 depends on this).
	evalA := &StaticEvaluator{NumAlts: 2, Table: map[int][]int{0: {0, 0}}}
	evalB := &StaticEvaluator{NumAlts: 2, Table: map[int][]int{0: {0, 2}}}
	items := []Item{{ID: 0, Flow: traffic.Flow{Size: 1}}}
	res, err := Negotiate(DefaultDistanceConfig(), evalA, evalB, items, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] != 1 {
		t.Errorf("assign = %v, want [1]", res.Assign)
	}
}

func TestHarmfulAlternativeFallsBackToDefault(t *testing.T) {
	// The only non-default alternative has combined gain -3; the
	// max-sum proposal is the (harmless) default, which is committed,
	// leaving the flow on its default route.
	evalA := &StaticEvaluator{NumAlts: 2, Table: map[int][]int{0: {0, -5}}}
	evalB := &StaticEvaluator{NumAlts: 2, Table: map[int][]int{0: {0, 2}}}
	items := []Item{{ID: 0, Flow: traffic.Flow{Size: 1}}}
	res, err := Negotiate(DefaultDistanceConfig(), evalA, evalB, items, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] != 0 {
		t.Errorf("assign = %v, want default", res.Assign)
	}
	if res.GainA != 0 || res.GainB != 0 {
		t.Errorf("gains = (%d,%d), want (0,0)", res.GainA, res.GainB)
	}
	if res.Stopped != StopAllNegotiated {
		t.Errorf("stop reason = %v, want all-negotiated", res.Stopped)
	}
}

func TestAlternateTurns(t *testing.T) {
	evalA := &StaticEvaluator{NumAlts: 2, Table: map[int][]int{
		0: {0, 1}, 1: {0, 1}, 2: {0, 1}, 3: {0, 1},
	}}
	evalB := &StaticEvaluator{NumAlts: 2, Table: map[int][]int{
		0: {0, 1}, 1: {0, 1}, 2: {0, 1}, 3: {0, 1},
	}}
	var items []Item
	for i := 0; i < 4; i++ {
		items = append(items, Item{ID: i, Flow: traffic.Flow{ID: i, Size: 1}})
	}
	res, err := Negotiate(DefaultDistanceConfig(), evalA, evalB, items, []int{0, 0, 0, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []Side{SideA, SideB, SideA, SideB}
	for i, p := range res.Transcript {
		if p.Proposer != want[i] {
			t.Errorf("round %d proposer = %v, want %v", i, p.Proposer, want[i])
		}
	}
}

func TestItemsBuilder(t *testing.T) {
	ab := []traffic.Flow{{ID: 0, Size: 1}, {ID: 1, Size: 2}}
	ba := []traffic.Flow{{ID: 0, Size: 3}}
	items := Items(ab, ba)
	if len(items) != 3 {
		t.Fatalf("got %d items", len(items))
	}
	for i, it := range items {
		if it.ID != i {
			t.Errorf("item %d has ID %d", i, it.ID)
		}
	}
	if items[0].Dir != AtoB || items[2].Dir != BtoA {
		t.Error("directions wrong")
	}
	if items[2].Flow.Size != 3 {
		t.Error("flow payload lost")
	}
}

func TestStringers(t *testing.T) {
	names := []string{
		AtoB.String(), BtoA.String(), SideA.String(), SideB.String(),
		StopAllNegotiated.String(), StopNoJointGain.String(),
		StopSideCannotGain.String(),
	}
	for i, n := range names {
		if n == "" {
			t.Errorf("stringer %d returned empty", i)
		}
	}
	if SideA.Other() != SideB || SideB.Other() != SideA {
		t.Error("Side.Other wrong")
	}
}

// --- evaluator tests over a real topology ---

// linePair builds two parallel 3-city backbones sharing all cities.
func linePair(t *testing.T) (*topology.Pair, *pairsim.System) {
	t.Helper()
	mk := func(name string, asn int) *topology.ISP {
		isp := &topology.ISP{Name: name, ASN: asn}
		for i, c := range []string{"west", "mid", "east"} {
			isp.PoPs = append(isp.PoPs, topology.PoP{
				ID: i, City: c, Loc: geo.Point{Lat: 40, Lon: -120 + 20*float64(i)}, Population: 1e6,
			})
		}
		for i := 0; i+1 < 3; i++ {
			d := geo.DistanceKm(isp.PoPs[i].Loc, isp.PoPs[i+1].Loc)
			isp.Links = append(isp.Links, topology.Link{A: i, B: i + 1, Weight: d, LengthKm: d})
		}
		return isp
	}
	pair := topology.NewPair(mk("a", 1), mk("b", 2))
	return pair, pairsim.New(pair, nil)
}

func TestDistanceEvaluatorPrefs(t *testing.T) {
	_, s := linePair(t)
	evalA := NewDistanceEvaluator(s, SideA, 10)
	// Flow from A's west PoP (0) to B's east PoP (2), A->B.
	// Interconnections sorted by city: east(0), mid(1), west(2).
	it := Item{ID: 0, Flow: traffic.Flow{ID: 0, Src: 0, Dst: 2, Size: 1}, Dir: AtoB}
	prefs := evalA.Prefs([]Item{it}, []int{2}) // default = west exit (early exit)
	if prefs[0][2] != 0 {
		t.Errorf("default alternative pref = %d, want 0", prefs[0][2])
	}
	// Exiting further from the source is worse for A (longer in-A path):
	// east exit carries the flow across A's whole backbone.
	if prefs[0][0] >= 0 {
		t.Errorf("east exit pref = %d, want negative", prefs[0][0])
	}
	if prefs[0][1] >= 0 || prefs[0][1] <= prefs[0][0] {
		t.Errorf("mid exit pref = %d, want between east (%d) and 0", prefs[0][1], prefs[0][0])
	}
	// The farthest alternative maps to -P under cardinal scaling.
	if prefs[0][0] != -10 {
		t.Errorf("east exit pref = %d, want -10", prefs[0][0])
	}
	// B's preferences mirror A's: east exit is best for B.
	evalB := NewDistanceEvaluator(s, SideB, 10)
	prefsB := evalB.Prefs([]Item{it}, []int{2})
	if prefsB[0][0] != 10 {
		t.Errorf("B's east exit pref = %d, want +10", prefsB[0][0])
	}
}

func TestDistanceEvaluatorReverseDirection(t *testing.T) {
	_, s := linePair(t)
	evalA := NewDistanceEvaluator(s, SideA, 10)
	// B->A flow from B's east PoP to A's west PoP. For A (downstream),
	// the east entry is worst (full backbone traversal).
	it := Item{ID: 0, Flow: traffic.Flow{ID: 0, Src: 2, Dst: 0, Size: 1}, Dir: BtoA}
	prefs := evalA.Prefs([]Item{it}, []int{0}) // default: east entry (B's early exit)
	if prefs[0][0] != 0 {
		t.Errorf("default pref = %d, want 0", prefs[0][0])
	}
	if prefs[0][2] != 10 {
		t.Errorf("west entry pref = %d, want +10 (A carries nothing)", prefs[0][2])
	}
}

func TestCardinalMappingScale(t *testing.T) {
	// Non-zero magnitudes {50, 100, 25}: the q90 denominator is 50, so
	// +50 maps to the full +10, -100 saturates at -10 (outliers clamp),
	// and +25 maps to +5.
	deltas := [][]float64{{0, 50, -100}, {0, 25, 0}}
	prefs := MapDeltas(deltas, 10)
	if prefs[0][1] != 10 || prefs[0][2] != -10 || prefs[1][1] != 5 {
		t.Errorf("cardinal mapping = %v", prefs)
	}
	// All-zero deltas map to all-zero prefs.
	zero := MapDeltas([][]float64{{0, 0}}, 10)
	if zero[0][0] != 0 || zero[0][1] != 0 {
		t.Error("zero deltas should map to zero prefs")
	}
	// Asymmetric rounding: losses are never underestimated (floor), so
	// any strictly negative delta gets a class <= -1, while a tiny gain
	// rounds to 0.
	asym := MapDeltas([][]float64{{0, -1, 100, 4}, {0, 100, 100, 100}, {0, 100, 100, 100}, {0, 100, 100, 100}}, 10)
	if asym[0][1] != -1 {
		t.Errorf("tiny loss mapped to class %d, want -1", asym[0][1])
	}
	if asym[0][3] != 0 {
		t.Errorf("tiny gain mapped to class %d, want 0", asym[0][3])
	}
	// The evaluators' unit is the table's largest magnitude, not each
	// flow's own: the flow whose best gain is 1 gets class 1, not P.
	flows := [][]float64{{0, 1}, {0, 10}}
	tableMax := mapDeltas(flows, 10, maxMagnitude(flows), &evalScratch{})
	if tableMax[0][1] != 1 || tableMax[1][1] != 10 {
		t.Errorf("table-max classes = %v, want [[0 1] [0 10]]", tableMax)
	}
}

func TestBandwidthEvaluatorTracksLoad(t *testing.T) {
	pair, s := linePair(t)
	nl := len(pair.A.Links)
	load := make([]float64, nl)
	capv := []float64{1, 1}
	evalA := NewBandwidthEvaluator(s, SideA, 10, load, capv)

	// Flow west->east via the east interconnection crosses both A links.
	it := Item{ID: 0, Flow: traffic.Flow{ID: 0, Src: 0, Dst: 2, Size: 0.6}, Dir: AtoB}
	prefs := evalA.Prefs([]Item{it}, []int{2})
	// Default (west exit) has empty own path: cost 0. East exit loads
	// both links to 0.6: delta = -0.6 -> negative pref.
	if prefs[0][2] != 0 || prefs[0][0] >= 0 {
		t.Errorf("prefs = %v", prefs[0])
	}
	evalA.Commit(it, 0) // commit to east exit: both links now 0.6
	if evalA.Load[0] != 0.6 || evalA.Load[1] != 0.6 {
		t.Errorf("loads after commit = %v", evalA.Load)
	}
	// A second identical flow now sees higher cost on the east path.
	it2 := Item{ID: 1, Flow: traffic.Flow{ID: 1, Src: 0, Dst: 2, Size: 0.6}, Dir: AtoB}
	prefs2 := evalA.Prefs([]Item{it2}, []int{2})
	if prefs2[0][0] >= prefs[0][0] {
		// Scale is recomputed per call, but with a single item the
		// worst alternative is pinned at -P both times; check the raw
		// costs instead.
		c1 := evalA.alternativeCost(it2, 0)
		if c1 <= 0.6 {
			t.Errorf("post-commit cost = %v, want > 0.6", c1)
		}
	}
}

func TestBandwidthEvaluatorPanicsOnBadVectors(t *testing.T) {
	_, s := linePair(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched vectors")
		}
	}()
	NewBandwidthEvaluator(s, SideA, 10, []float64{1}, []float64{1, 1})
}

func TestFortzThorupEvaluator(t *testing.T) {
	pair, s := linePair(t)
	nl := len(pair.A.Links)
	evalA := NewFortzThorupEvaluator(s, SideA, 10, make([]float64, nl), []float64{1, 1})
	it := Item{ID: 0, Flow: traffic.Flow{ID: 0, Src: 0, Dst: 2, Size: 0.5}, Dir: AtoB}
	prefs := evalA.Prefs([]Item{it}, []int{2})
	if prefs[0][2] != 0 {
		t.Errorf("default pref = %d, want 0", prefs[0][2])
	}
	if prefs[0][0] >= 0 {
		t.Errorf("costly alternative pref = %d, want negative", prefs[0][0])
	}
	evalA.Commit(it, 0)
	if evalA.Load[0] != 0.5 {
		t.Errorf("load after commit = %v", evalA.Load)
	}
}

func TestCheatDistortion(t *testing.T) {
	// own = {0, 2, 5}, other = {0, 8, -3}: max sum = 10 at alt 1;
	// cheater's best alt is 2 (own 5); needs disclosed 10-(-3)=13 > P=10,
	// so clamp best to 10 and deflate alt 1 to P + other[2] - other[1]
	// = 10 - 3 - 8 = -1.
	got := distortPrefs(make([]int, 3), []int{0, 2, 5}, []int{0, 8, -3}, 10)
	if got[2] != 10 {
		t.Errorf("best alt disclosed = %d, want 10", got[2])
	}
	if got[1] != -1 {
		t.Errorf("competing alt disclosed = %d, want -1", got[1])
	}
	if got[2]+(-3) < got[1]+8 || got[2]+(-3) < got[0]+0 {
		t.Error("cheater's best alternative does not attain max sum")
	}

	// Small inflation case: own = {0, 1}, other = {3, 0}: best alt 1,
	// need 3-0 = 3 <= P: disclose {0, 3}.
	got = distortPrefs(make([]int, 2), []int{0, 1}, []int{3, 0}, 10)
	if got[1] != 3 || got[0] != 0 {
		t.Errorf("got %v, want [0 3]", got)
	}

	// Already maximal: disclose truthfully.
	got = distortPrefs(make([]int, 2), []int{0, 5}, []int{0, 0}, 10)
	if got[0] != 0 || got[1] != 5 {
		t.Errorf("got %v, want [0 5]", got)
	}
}

func TestCheatEvaluatorSteersOutcome(t *testing.T) {
	// Without cheating, item 0 goes to alt 1 (sum 6). The cheater's own
	// best is alt 2; with distortion alt 2 must be selected.
	truthA := &StaticEvaluator{NumAlts: 3, Table: map[int][]int{0: {0, 1, 4}}}
	evalB := &StaticEvaluator{NumAlts: 3, Table: map[int][]int{0: {0, 5, 1}}}
	cheater := &CheatEvaluator{Truthful: truthA, Other: evalB, P: 10}
	items := []Item{{ID: 0, Flow: traffic.Flow{Size: 1}}}
	res, err := Negotiate(DefaultDistanceConfig(), cheater, evalB, items, []int{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] != 2 {
		t.Errorf("assign = %v, cheater failed to steer to alt 2", res.Assign)
	}
}

func TestNegotiationDeterminism(t *testing.T) {
	_, s := linePair(t)
	w := traffic.New(s.Pair.A, s.Pair.B, traffic.Gravity, nil)
	wRev := traffic.New(s.Pair.B, s.Pair.A, traffic.Gravity, nil)
	items := Items(w.Flows, wRev.Flows)
	defaults := make([]int, len(items))
	rev := s.Reverse()
	for i, it := range items {
		if it.Dir == AtoB {
			defaults[i] = s.EarlyExit(it.Flow)
		} else {
			defaults[i] = rev.EarlyExit(it.Flow)
		}
	}
	run := func() *Result {
		evalA := NewDistanceEvaluator(s, SideA, 10)
		evalB := NewDistanceEvaluator(s, SideB, 10)
		res, err := Negotiate(DefaultDistanceConfig(), evalA, evalB, items, defaults, s.NumAlternatives())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	for i := range r1.Assign {
		if r1.Assign[i] != r2.Assign[i] {
			t.Fatal("negotiation is not deterministic")
		}
	}
	if r1.GainA != r2.GainA || r1.GainB != r2.GainB {
		t.Fatal("gains differ across runs")
	}
}

func TestReassignmentTriggersByTrafficFraction(t *testing.T) {
	// Count Prefs calls: with ReassignFraction 0.25 over 4 unit flows,
	// prefs are recomputed after each flow: 1 initial + 3 reassignments
	// (the 4th commit empties the table; refresh on empty is harmless).
	calls := 0
	mkEval := func() Evaluator {
		return newScripted(func(map[int]int, Item) []int { return []int{0, 1} })
	}
	evalA := mkEval().(*scriptedEvaluator)
	base := evalA.prefs
	evalA.prefs = func(c map[int]int, it Item) []int {
		return base(c, it)
	}
	countingA := &countingEvaluator{inner: evalA, calls: &calls}
	var items []Item
	defaults := make([]int, 4)
	for i := 0; i < 4; i++ {
		items = append(items, Item{ID: i, Flow: traffic.Flow{ID: i, Size: 1}})
	}
	cfg := DefaultDistanceConfig()
	cfg.ReassignFraction = 0.25
	if _, err := Negotiate(cfg, countingA, mkEval(), items, defaults, 2); err != nil {
		t.Fatal(err)
	}
	if calls < 4 {
		t.Errorf("Prefs called %d times, want >= 4 (initial + reassignments)", calls)
	}
}

type countingEvaluator struct {
	inner Evaluator
	calls *int
}

func (c *countingEvaluator) Prefs(items []Item, defaults []int) [][]int {
	*c.calls++
	return c.inner.Prefs(items, defaults)
}
func (c *countingEvaluator) Commit(it Item, alt int) { c.inner.Commit(it, alt) }
