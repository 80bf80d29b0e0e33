package baseline

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/nexit"
	"repro/internal/pairsim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

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

func TestEarlyAndLateExit(t *testing.T) {
	_, s := linePair(t)
	w := traffic.New(s.Pair.A, s.Pair.B, traffic.Identical, nil)
	early := EarlyExit(s, w.Flows)
	for _, f := range w.Flows {
		// Interconnections share cities with PoPs, so early exit leaves
		// at the source city and late exit, the interconnection nearest
		// the destination by routing weight, enters at the destination.
		if s.Pair.Interconnections[early[f.ID]].APoP != f.Src {
			t.Errorf("flow %d: early exit not at source", f.ID)
		}
		late, lateW := -1, math.Inf(1)
		for k, ix := range s.Pair.Interconnections {
			if d := s.Down.Dist(ix.BPoP, f.Dst); d < lateW {
				late, lateW = k, d
			}
		}
		if s.Pair.Interconnections[late].BPoP != f.Dst {
			t.Errorf("flow %d: late exit not at destination", f.ID)
		}
	}
}

func TestFlowLocalStrategies(t *testing.T) {
	deltasA := [][]float64{{0, 5, -2}, {0, -1, -3}}
	deltasB := [][]float64{{0, -3, -1}, {0, -2, -4}}
	defaults := []int{0, 0}
	rng := rand.New(rand.NewSource(1))

	// FlowBothBetter: item 0 candidates = {0} (alt 1 hurts B, alt 2
	// hurts both); item 1 candidates = {0}.
	got := FlowLocal(FlowBothBetter, deltasA, deltasB, defaults, rng)
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("FlowBothBetter = %v, want [0 0]", got)
	}
	// FlowPareto: item 0 candidates = {0, 1} (alt 2 worse for both);
	// item 1 candidates = {0} (both alternatives worse for both).
	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		got = FlowLocal(FlowPareto, deltasA, deltasB, defaults, rng)
		counts[got[0]]++
		if got[0] == 2 {
			t.Fatal("FlowPareto picked a jointly-worse alternative")
		}
		if got[1] != 0 {
			t.Fatal("FlowPareto should keep item 1 at default")
		}
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Errorf("FlowPareto should randomize among candidates, got %v", counts)
	}
}

// TestFlowLocalAllocatesOnlyItsResult pins FlowLocal to one allocation
// per call, the returned slice, however many items and alternatives it
// draws among.
func TestFlowLocalAllocatesOnlyItsResult(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	deltasA, deltasB := make([][]float64, 200), make([][]float64, 200)
	for i := range deltasA {
		deltasA[i], deltasB[i] = make([]float64, 12), make([]float64, 12)
		for k := range deltasA[i] {
			deltasA[i][k], deltasB[i][k] = rng.NormFloat64(), rng.NormFloat64()
		}
	}
	defaults := make([]int, len(deltasA))
	for _, s := range []FlowLocalStrategy{FlowPareto, FlowBothBetter} {
		if n := testing.AllocsPerRun(20, func() { FlowLocal(s, deltasA, deltasB, defaults, rng) }); n > 1 {
			t.Errorf("%v: %.1f allocations per call, want 1", s, n)
		}
	}
}

func TestDistanceDeltas(t *testing.T) {
	_, s := linePair(t)
	// A->B flow west->east; default = west exit (early).
	// Interconnections sorted: east(0), mid(1), west(2).
	items := []nexit.Item{
		{ID: 0, Flow: traffic.Flow{ID: 0, Src: 0, Dst: 2, Size: 1}, Dir: nexit.AtoB},
		{ID: 1, Flow: traffic.Flow{ID: 0, Src: 2, Dst: 0, Size: 1}, Dir: nexit.BtoA},
	}
	defaults := []int{2, 0}
	dA := nexit.NewDistanceEvaluator(s, nexit.SideA, 10).RawDeltas(items, defaults)
	dB := nexit.NewDistanceEvaluator(s, nexit.SideB, 10).RawDeltas(items, defaults)
	// Item 0: for A, west exit is default (delta 0); east exit costs A
	// the full backbone -> negative; for B east exit saves the full
	// backbone -> positive.
	if dA[0][2] != 0 || dB[0][2] != 0 {
		t.Errorf("default deltas nonzero: %v %v", dA[0], dB[0])
	}
	if dA[0][0] >= 0 || dB[0][0] <= 0 {
		t.Errorf("item 0 east deltas: A %v B %v", dA[0][0], dB[0][0])
	}
	// Item 1 mirrors: B is upstream; its default (east) delta 0; west
	// entry good for A... west alternative k=2: A delta positive.
	if dA[1][2] <= 0 || dB[1][2] >= 0 {
		t.Errorf("item 1 west deltas: A %v B %v", dA[1][2], dB[1][2])
	}
	if gotA, gotB := DistanceDeltas(s, items, defaults); !reflect.DeepEqual(gotA, dA) || !reflect.DeepEqual(gotB, dB) {
		t.Errorf("DistanceDeltas = %v %v, want the evaluators' %v %v", gotA, gotB, dA, dB)
	}
}

func TestUnilateralUpstreamMinimizesOwnLoad(t *testing.T) {
	_, s := linePair(t)
	flows := []traffic.Flow{
		{ID: 0, Src: 0, Dst: 2, Size: 1},
		{ID: 1, Src: 0, Dst: 2, Size: 1},
	}
	nl := len(s.Pair.A.Links)
	loadUp := make([]float64, nl)
	capUp := []float64{1, 1}
	assign := UnilateralUpstream(s, flows, loadUp, capUp)
	// The upstream's cheapest choice is the west exit (own path empty).
	for _, f := range flows {
		if s.Pair.Interconnections[assign[f.ID]].City != "west" {
			t.Errorf("flow %d routed via %s, want west (zero upstream cost)",
				f.ID, s.Pair.Interconnections[assign[f.ID]].City)
		}
	}
	// Input load vector must not be mutated.
	for i, l := range loadUp {
		if l != 0 {
			t.Errorf("loadUp[%d] mutated to %v", i, l)
		}
	}
}

func TestUnilateralSpreadsWhenCongested(t *testing.T) {
	_, s := linePair(t)
	// Two flows from the mid PoP: first goes to the west exit (tie
	// decided by lowest cost; both west and east cost one link), and
	// the second should avoid the now-loaded link.
	flows := []traffic.Flow{
		{ID: 0, Src: 1, Dst: 0, Size: 1},
		{ID: 1, Src: 1, Dst: 0, Size: 1},
	}
	capUp := []float64{1, 1}
	assign := UnilateralUpstream(s, flows, make([]float64, 2), capUp)
	if assign[0] == assign[1] {
		// Both flows on the same exit would double one link's load;
		// spreading keeps max ratio at 1.
		k := assign[0]
		if s.Pair.Interconnections[k].City != "mid" {
			t.Errorf("flows stacked on %s instead of spreading", s.Pair.Interconnections[k].City)
		}
	}
}

func TestGroupNegotiate(t *testing.T) {
	_, s := linePair(t)
	wAB := traffic.New(s.Pair.A, s.Pair.B, traffic.Identical, nil)
	wBA := traffic.New(s.Pair.B, s.Pair.A, traffic.Identical, nil)
	items := nexit.Items(wAB.Flows, wBA.Flows)
	defaults := make([]int, len(items))
	rev := s.Reverse()
	for i, it := range items {
		if it.Dir == nexit.AtoB {
			defaults[i] = s.EarlyExit(it.Flow)
		} else {
			defaults[i] = rev.EarlyExit(it.Flow)
		}
	}
	cfg := nexit.DefaultDistanceConfig()
	evalA := nexit.NewDistanceEvaluator(s, nexit.SideA, 10)
	evalB := nexit.NewDistanceEvaluator(s, nexit.SideB, 10)

	whole, err := nexit.Negotiate(cfg, evalA, evalB, items, defaults, s.NumAlternatives())
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := GroupNegotiate(cfg, evalA, evalB, items, defaults, s.NumAlternatives(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(grouped) != len(whole.Assign) {
		t.Fatalf("grouped assignment has %d entries, want %d", len(grouped), len(whole.Assign))
	}
	for i, a := range grouped {
		if a < 0 || a >= s.NumAlternatives() {
			t.Errorf("grouped[%d] = %d out of range", i, a)
		}
	}
	if _, err := GroupNegotiate(cfg, evalA, evalB, items, defaults, s.NumAlternatives(), 0); err == nil {
		t.Error("groups=0 accepted")
	}
}
