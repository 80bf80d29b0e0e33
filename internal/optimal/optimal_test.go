package optimal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/pairsim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// linePair builds two parallel n-city backbones sharing all cities, so
// the pair has n interconnections.
func linePair(n int) *topology.Pair {
	mk := func(name string, asn int) *topology.ISP {
		isp := &topology.ISP{Name: name, ASN: asn}
		for i := 0; i < n; i++ {
			isp.PoPs = append(isp.PoPs, topology.PoP{
				ID: i, City: cityName(i), Loc: geo.Point{Lat: 40, Lon: -120 + 10*float64(i)}, Population: 1e6,
			})
		}
		for i := 0; i+1 < n; i++ {
			d := geo.DistanceKm(isp.PoPs[i].Loc, isp.PoPs[i+1].Loc)
			isp.Links = append(isp.Links, topology.Link{A: i, B: i + 1, Weight: d, LengthKm: d})
		}
		return isp
	}
	return topology.NewPair(mk("up", 1), mk("down", 2))
}

func cityName(i int) string { return string(rune('a'+i)) + "ville" }

// totalDistance sums TotalDistKm over all assigned flows (unweighted by
// size, as in the paper's §5.1 metric where every PoP pair contributes
// one flow).
func totalDistance(s *pairsim.System, flows []traffic.Flow, assign pairsim.Assignment) float64 {
	var sum float64
	for _, f := range flows {
		if k := assign[f.ID]; k >= 0 {
			sum += s.TotalDistKm(f, k)
		}
	}
	return sum
}

// TestDistanceIsPerFlowOptimal: the distance optimum is BestTotal per
// flow, and no alternative beats it for any flow or in total.
func TestDistanceIsPerFlowOptimal(t *testing.T) {
	pair := linePair(4)
	s := pairsim.New(pair, nil)
	w := traffic.New(pair.A, pair.B, traffic.Identical, nil)
	assign := pairsim.NewAssignment(len(w.Flows))
	for _, f := range w.Flows {
		assign[f.ID] = s.BestTotal(f)
	}
	for _, f := range w.Flows {
		got := s.TotalDistKm(f, assign[f.ID])
		for k := 0; k < s.NumAlternatives(); k++ {
			if s.TotalDistKm(f, k) < got-1e-9 {
				t.Errorf("flow %d: alternative %d beats the chosen one", f.ID, k)
			}
		}
	}
	// Optimal total distance <= early-exit total distance.
	early := pairsim.NewAssignment(len(w.Flows))
	for _, f := range w.Flows {
		early[f.ID] = s.EarlyExit(f)
	}
	if totalDistance(s, w.Flows, assign) > totalDistance(s, w.Flows, early)+1e-9 {
		t.Error("optimal distance worse than early-exit")
	}
}

// TestBandwidthEmptyFlows covers the no-LP path: with nothing to
// reroute, the MELs are the fixed loads', and the joint MEL is the
// larger side's, whichever side that is.
func TestBandwidthEmptyFlows(t *testing.T) {
	pair := linePair(3)
	s := pairsim.New(pair, nil)
	capUp := []float64{1, 1}
	capDown := []float64{1, 2}
	for _, tc := range []struct {
		fixedUp, fixedDown []float64
		want               BandwidthResult
	}{
		{[]float64{0.5, 0}, []float64{0, 0}, BandwidthResult{MEL: 0.5, MELUp: 0.5}},
		{[]float64{0.25, 0}, []float64{0, 1.5}, BandwidthResult{MEL: 0.75, MELUp: 0.25, MELDown: 0.75}},
	} {
		res, err := Bandwidth(s, nil, tc.fixedUp, tc.fixedDown, capUp, capDown)
		if err != nil {
			t.Fatal(err)
		}
		if res.MEL != tc.want.MEL || res.MELUp != tc.want.MELUp || res.MELDown != tc.want.MELDown || res.Fractions != nil {
			t.Errorf("fixed %v/%v: MELs %+v, want %+v", tc.fixedUp, tc.fixedDown, res, tc.want)
		}
	}
}

// integralMEL computes the realized MEL of an integral assignment.
func integralMEL(s *pairsim.System, flows []traffic.Flow, assign []int, fixedUp, fixedDown, capUp, capDown []float64) float64 {
	loadUp := append([]float64(nil), fixedUp...)
	loadDown := append([]float64(nil), fixedDown...)
	for i, f := range flows {
		ix := s.Pair.Interconnections[assign[i]]
		s.Up.AddLoad(loadUp, f.Src, ix.APoP, f.Size)
		s.Down.AddLoad(loadDown, ix.BPoP, f.Dst, f.Size)
	}
	m := metrics.MEL(loadUp, capUp)
	if d := metrics.MEL(loadDown, capDown); d > m {
		m = d
	}
	return m
}

func TestBandwidthLowerBoundsIntegral(t *testing.T) {
	// Property: the fractional optimum is <= the MEL of every integral
	// assignment (here: exhaustive over all assignments of 3 flows).
	pair := linePair(3)
	s := pairsim.New(pair, nil)
	flows := []traffic.Flow{
		{ID: 0, Src: 0, Dst: 2, Size: 1},
		{ID: 1, Src: 1, Dst: 0, Size: 2},
		{ID: 2, Src: 2, Dst: 1, Size: 1.5},
	}
	nl := len(pair.A.Links)
	fixedUp := make([]float64, nl)
	fixedDown := make([]float64, nl)
	fixedUp[0], fixedDown[1] = 0.4, 0.8
	capUp := []float64{2, 2}
	capDown := []float64{2, 2}

	res, err := Bandwidth(s, flows, fixedUp, fixedDown, capUp, capDown)
	if err != nil {
		t.Fatal(err)
	}
	na := s.NumAlternatives()
	best := math.Inf(1)
	assign := make([]int, len(flows))
	var rec func(int)
	rec = func(i int) {
		if i == len(flows) {
			if m := integralMEL(s, flows, assign, fixedUp, fixedDown, capUp, capDown); m < best {
				best = m
			}
			return
		}
		for k := 0; k < na; k++ {
			assign[i] = k
			rec(i + 1)
		}
	}
	rec(0)
	if res.MEL > best+1e-6 {
		t.Errorf("fractional optimum %v exceeds best integral %v", res.MEL, best)
	}
	// Fractions are a probability distribution per flow.
	for i, fr := range res.Fractions {
		var sum float64
		for _, x := range fr {
			if x < -1e-9 {
				t.Errorf("flow %d: negative fraction %v", i, x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("flow %d: fractions sum to %v", i, sum)
		}
	}
	// Realized per-ISP MELs are consistent with the LP objective.
	if got := math.Max(res.MELUp, res.MELDown); got > res.MEL+1e-6 {
		t.Errorf("realized MEL %v exceeds LP objective %v", got, res.MEL)
	}
}

func TestBandwidthSpreadsLoad(t *testing.T) {
	// One big flow, two interconnections with tight capacity everywhere:
	// the fractional optimum should split the flow.
	pair := linePair(2)
	s := pairsim.New(pair, nil)
	flows := []traffic.Flow{{ID: 0, Src: 0, Dst: 1, Size: 2}}
	capUp := []float64{1}
	capDown := []float64{1}
	res, err := Bandwidth(s, flows, []float64{0}, []float64{0}, capUp, capDown)
	if err != nil {
		t.Fatal(err)
	}
	// Alternative 0 = interconnection at city a: path uses downstream
	// link; alternative 1 = city b: path uses upstream link. An even
	// split gives MEL 1; any integral choice gives MEL 2.
	if math.Abs(res.MEL-1) > 1e-6 {
		t.Errorf("MEL = %v, want 1 (even split)", res.MEL)
	}
	if math.Abs(res.Fractions[0][0]-0.5) > 1e-6 {
		t.Errorf("fractions = %v, want [0.5 0.5]", res.Fractions[0])
	}
}

func TestBandwidthRandomizedLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(2)
		pair := linePair(n)
		s := pairsim.New(pair, nil)
		var flows []traffic.Flow
		nf := 2 + rng.Intn(3)
		for i := 0; i < nf; i++ {
			flows = append(flows, traffic.Flow{
				ID: i, Src: rng.Intn(n), Dst: rng.Intn(n), Size: 0.5 + rng.Float64()*2,
			})
		}
		mkCaps := func(k int) []float64 {
			c := make([]float64, k)
			for i := range c {
				c[i] = 0.5 + rng.Float64()*3
			}
			return c
		}
		capUp, capDown := mkCaps(len(pair.A.Links)), mkCaps(len(pair.B.Links))
		fixedUp, fixedDown := make([]float64, len(capUp)), make([]float64, len(capDown))
		for i := range fixedUp {
			fixedUp[i] = rng.Float64()
		}
		res, err := Bandwidth(s, flows, fixedUp, fixedDown, capUp, capDown)
		if err != nil {
			t.Fatal(err)
		}
		// Sample random integral assignments; none may beat the LP.
		for trial2 := 0; trial2 < 50; trial2++ {
			assign := make([]int, nf)
			for i := range assign {
				assign[i] = rng.Intn(s.NumAlternatives())
			}
			if m := integralMEL(s, flows, assign, fixedUp, fixedDown, capUp, capDown); m < res.MEL-1e-6 {
				t.Fatalf("trial %d: integral %v beats fractional optimum %v", trial, m, res.MEL)
			}
		}
	}
}
