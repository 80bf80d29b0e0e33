package pairsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// figure1Pair builds the paper's Figure 1 scenario: two parallel east-west
// backbones meeting in three cities (west, mid, east). ISP A's traffic
// source sits in the west, ISP B's in the east, so early-exit from either
// side picks the interconnection nearest the source and makes the other
// ISP carry the flow the long way.
func figure1Pair() *topology.Pair {
	mk := func(name string, asn int) *topology.ISP {
		isp := &topology.ISP{Name: name, ASN: asn}
		cities := []struct {
			city string
			lon  float64
		}{{"west", -120}, {"mid", -100}, {"east", -80}}
		for i, c := range cities {
			isp.PoPs = append(isp.PoPs, topology.PoP{
				ID: i, City: c.city, Loc: geo.Point{Lat: 40, Lon: c.lon}, Population: 1e6,
			})
		}
		d := geo.DistanceKm(isp.PoPs[0].Loc, isp.PoPs[1].Loc)
		isp.Links = []topology.Link{
			{A: 0, B: 1, Weight: d, LengthKm: d},
			{A: 1, B: 2, Weight: d, LengthKm: d},
		}
		return isp
	}
	return topology.NewPair(mk("ispA", 1), mk("ispB", 2))
}

// validate checks that a system's interconnection endpoints resolve and
// its routing tables belong to its pair's ISPs.
func validate(s *System) error {
	if err := s.Pair.Validate(); err != nil {
		return err
	}
	if s.Up.ISP != s.Pair.A || s.Down.ISP != s.Pair.B {
		return fmt.Errorf("pairsim: routing tables do not match pair ISPs")
	}
	return nil
}

// lateExit returns the interconnection closest to the flow's destination
// by routing weight — the outcome of consistently honored MEDs (Fig 1b).
func lateExit(s *System, f traffic.Flow) int {
	best, bestW := -1, math.Inf(1)
	for k, ix := range s.Pair.Interconnections {
		if w := s.Down.Dist(ix.BPoP, f.Dst); w < bestW {
			best, bestW = k, w
		}
	}
	return best
}

func TestSystemBasics(t *testing.T) {
	pair := figure1Pair()
	if pair.NumInterconnections() != 3 {
		t.Fatalf("want 3 interconnections, got %d", pair.NumInterconnections())
	}
	s := New(pair, nil)
	if err := validate(s); err != nil {
		t.Fatal(err)
	}
	if s.NumAlternatives() != 3 {
		t.Errorf("NumAlternatives = %d", s.NumAlternatives())
	}
}

func TestEarlyLateBestExit(t *testing.T) {
	pair := figure1Pair()
	s := New(pair, nil)
	// Interconnections sorted by city: east=0, mid=1, west=2.
	f := traffic.Flow{ID: 0, Src: 0, Dst: 2, Size: 1} // west PoP -> east PoP
	if k := s.EarlyExit(f); pair.Interconnections[k].City != "west" {
		t.Errorf("EarlyExit picked %s, want west", pair.Interconnections[k].City)
	}
	if k := lateExit(s, f); pair.Interconnections[k].City != "east" {
		t.Errorf("late exit picked %s, want east", pair.Interconnections[k].City)
	}
	// All alternatives have the same total distance on a shared line, so
	// BestTotal is the first minimizer (east, index 0).
	total := s.TotalDistKm(f, s.BestTotal(f))
	for k := 0; k < 3; k++ {
		if s.TotalDistKm(f, k) < total-1e-9 {
			t.Errorf("BestTotal missed a better alternative %d", k)
		}
	}
}

func TestDistancesAddUp(t *testing.T) {
	pair := figure1Pair()
	s := New(pair, nil)
	f := traffic.Flow{ID: 0, Src: 0, Dst: 2, Size: 1}
	for k := range pair.Interconnections {
		up, down := s.UpDistKm(f, k), s.DownDistKm(f, k)
		want := up + pair.Interconnections[k].LengthKm + down
		if got := s.TotalDistKm(f, k); math.Abs(got-want) > 1e-9 {
			t.Errorf("alt %d: TotalDistKm = %v, want %v", k, got, want)
		}
	}
	// Early exit from west means B carries the flow the full span.
	kWest := 2
	if s.UpDistKm(f, kWest) != 0 {
		t.Errorf("UpDist at source interconnection should be 0")
	}
	if s.DownDistKm(f, kWest) <= s.DownDistKm(f, 0) {
		t.Error("early exit should push distance into the downstream")
	}
}

func TestReverse(t *testing.T) {
	pair := figure1Pair()
	s := New(pair, nil)
	r := s.Reverse()
	if r.Pair.A != pair.B || r.Pair.B != pair.A {
		t.Error("Reverse did not swap ISPs")
	}
	if r.Up != s.Down || r.Down != s.Up {
		t.Error("Reverse did not swap routing tables")
	}
	if err := validate(r); err != nil {
		t.Fatal(err)
	}
	f := traffic.Flow{ID: 0, Src: 2, Dst: 0, Size: 1} // B's east -> A's west
	if k := r.EarlyExit(f); r.Pair.Interconnections[k].City != "east" {
		t.Errorf("reverse EarlyExit picked %s, want east", r.Pair.Interconnections[k].City)
	}
}

func TestLoadsAccumulate(t *testing.T) {
	pair := figure1Pair()
	s := New(pair, nil)
	w := traffic.New(pair.A, pair.B, traffic.Identical, nil)
	assign := NewAssignment(len(w.Flows))
	for _, f := range w.Flows {
		assign[f.ID] = s.EarlyExit(f)
	}
	loadUp, loadDown := s.Loads(w.Flows, assign)
	// Early exit: upstream never carries traffic (src city == exit city
	// for every flow since every PoP city has an interconnection).
	for i, l := range loadUp {
		if l != 0 {
			t.Errorf("upstream link %d carries %v under early-exit with co-located exits", i, l)
		}
	}
	var down float64
	for _, l := range loadDown {
		down += l
	}
	if down == 0 {
		t.Error("downstream should carry load under early-exit")
	}
}

func TestLoadsSkipUnassigned(t *testing.T) {
	pair := figure1Pair()
	s := New(pair, nil)
	w := traffic.New(pair.A, pair.B, traffic.Identical, nil)
	assign := NewAssignment(len(w.Flows))
	loadUp, loadDown := s.Loads(w.Flows, assign)
	for i := range loadUp {
		if loadUp[i] != 0 {
			t.Error("unassigned flows should contribute no load")
		}
	}
	for i := range loadDown {
		if loadDown[i] != 0 {
			t.Error("unassigned flows should contribute no load")
		}
	}
}

func TestTableCacheReuses(t *testing.T) {
	pair := figure1Pair()
	cache := NewTableCache()
	s1 := New(pair, cache)
	s2 := New(pair, cache)
	if s1.Up != s2.Up || s1.Down != s2.Down {
		t.Error("cache did not reuse tables")
	}
}
