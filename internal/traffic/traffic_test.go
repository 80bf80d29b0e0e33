package traffic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/topology"
)

func twoISPs() (*topology.ISP, *topology.ISP) {
	a := &topology.ISP{
		Name: "a", ASN: 1,
		PoPs: []topology.PoP{
			{ID: 0, City: "x", Loc: geo.Point{Lat: 1}, Population: 1e6},
			{ID: 1, City: "y", Loc: geo.Point{Lat: 2}, Population: 4e6},
		},
		Links: []topology.Link{{A: 0, B: 1, Weight: 1, LengthKm: 1}},
	}
	b := &topology.ISP{
		Name: "b", ASN: 2,
		PoPs: []topology.PoP{
			{ID: 0, City: "p", Loc: geo.Point{Lat: 3}, Population: 2e6},
			{ID: 1, City: "q", Loc: geo.Point{Lat: 4}, Population: 2e6},
			{ID: 2, City: "r", Loc: geo.Point{Lat: 5}, Population: 6e6},
		},
		Links: []topology.Link{{A: 0, B: 1, Weight: 1, LengthKm: 1}, {A: 1, B: 2, Weight: 1, LengthKm: 1}},
	}
	return a, b
}

func TestNewProducesAllFlows(t *testing.T) {
	a, b := twoISPs()
	w := New(a, b, Gravity, nil)
	if len(w.Flows) != 6 {
		t.Fatalf("got %d flows, want 6", len(w.Flows))
	}
	seen := map[[2]int]bool{}
	for i, f := range w.Flows {
		if f.ID != i {
			t.Errorf("flow %d has ID %d", i, f.ID)
		}
		if f.Src < 0 || f.Src >= 2 || f.Dst < 0 || f.Dst >= 3 {
			t.Errorf("flow %d endpoints out of range: %+v", i, f)
		}
		key := [2]int{f.Src, f.Dst}
		if seen[key] {
			t.Errorf("duplicate flow %v", key)
		}
		seen[key] = true
		if f.Size <= 0 {
			t.Errorf("flow %d has non-positive size", i)
		}
	}
}

func TestGravityProportionality(t *testing.T) {
	a, b := twoISPs()
	w := New(a, b, Gravity, nil)
	// size(src,dst) proportional to pop(src)*pop(dst):
	// flow (1,2) / flow (0,0) = (4e6*6e6)/(1e6*2e6) = 12.
	var f00, f12 float64
	for _, f := range w.Flows {
		if f.Src == 0 && f.Dst == 0 {
			f00 = f.Size
		}
		if f.Src == 1 && f.Dst == 2 {
			f12 = f.Size
		}
	}
	if math.Abs(f12/f00-12) > 1e-9 {
		t.Errorf("gravity ratio = %v, want 12", f12/f00)
	}
}

func TestNormalizationMeanOne(t *testing.T) {
	a, b := twoISPs()
	for _, m := range []Model{Gravity, Identical, UniformRandom} {
		w := New(a, b, m, rand.New(rand.NewSource(3)))
		var total float64
		for _, f := range w.Flows {
			total += f.Size
		}
		mean := total / float64(len(w.Flows))
		if math.Abs(mean-1) > 1e-9 {
			t.Errorf("%v: mean flow size = %v, want 1", m, mean)
		}
	}
}

func TestIdenticalAllEqual(t *testing.T) {
	a, b := twoISPs()
	w := New(a, b, Identical, nil)
	for _, f := range w.Flows {
		if math.Abs(f.Size-1) > 1e-9 {
			t.Errorf("identical model produced size %v", f.Size)
		}
	}
}

func TestUniformRandomDeterministicPerSeed(t *testing.T) {
	a, b := twoISPs()
	w1 := New(a, b, UniformRandom, rand.New(rand.NewSource(5)))
	w2 := New(a, b, UniformRandom, rand.New(rand.NewSource(5)))
	for i := range w1.Flows {
		if w1.Flows[i].Size != w2.Flows[i].Size {
			t.Fatal("same seed gave different workloads")
		}
	}
	w3 := New(a, b, UniformRandom, rand.New(rand.NewSource(6)))
	same := true
	for i := range w1.Flows {
		if w1.Flows[i].Size != w3.Flows[i].Size {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical workloads")
	}
}

func TestUniformRandomNeedsRNG(t *testing.T) {
	a, b := twoISPs()
	defer func() {
		if recover() == nil {
			t.Error("expected panic without rng")
		}
	}()
	New(a, b, UniformRandom, nil)
}

func TestModelString(t *testing.T) {
	if Gravity.String() != "gravity" || Identical.String() != "identical" || UniformRandom.String() != "uniform-random" {
		t.Error("model names wrong")
	}
	if Model(42).String() == "" {
		t.Error("unknown model should still stringify")
	}
}

// TestNewAllocations pins New's allocations: the workload, the two PoP
// weight vectors and one flow slice sized up front, not grown flow by
// flow.
func TestNewAllocations(t *testing.T) {
	a, b := twoISPs()
	allocs := testing.AllocsPerRun(100, func() { New(a, b, Gravity, nil) })
	if allocs != 4 {
		t.Errorf("New allocates %v times, want 4", allocs)
	}
	if w := New(a, b, Gravity, nil); cap(w.Flows) != len(w.Flows) {
		t.Errorf("cap(Flows) = %d, len %d", cap(w.Flows), len(w.Flows))
	}
}
