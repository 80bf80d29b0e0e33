package nexit

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/pairsim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// randomPair builds a random pair of ISPs sharing at least two cities:
// random city sets with coordinates, spanning-tree backbones plus
// shortcuts.
func randomPair(rng *rand.Rand) *topology.Pair {
	nShared := 2 + rng.Intn(3)
	mk := func(name string, asn, extra int) *topology.ISP {
		isp := &topology.ISP{Name: name, ASN: asn}
		n := nShared + extra
		for i := 0; i < n; i++ {
			city := string(rune('a'+i%26)) + string(rune('0'+i/26))
			var loc geo.Point
			if i < nShared {
				// Shared cities: same coordinates in both ISPs, seeded
				// deterministically from the index.
				loc = geo.Point{Lat: float64(10 + 7*i%60), Lon: float64(-120 + 13*i%100)}
			} else {
				loc = geo.Point{Lat: rng.Float64()*120 - 60, Lon: rng.Float64()*300 - 150}
			}
			isp.PoPs = append(isp.PoPs, topology.PoP{ID: i, City: city, Loc: loc, Population: 1e6})
		}
		// Random spanning tree + shortcuts.
		perm := rng.Perm(n)
		have := map[[2]int]bool{}
		add := func(a, b int) {
			if a > b {
				a, b = b, a
			}
			if a == b || have[[2]int{a, b}] {
				return
			}
			have[[2]int{a, b}] = true
			d := geo.DistanceKm(isp.PoPs[a].Loc, isp.PoPs[b].Loc)
			if d < 1 {
				d = 1
			}
			isp.Links = append(isp.Links, topology.Link{A: a, B: b, Weight: d, LengthKm: d})
		}
		for i := 1; i < n; i++ {
			add(perm[i], perm[rng.Intn(i)])
		}
		for e := 0; e < n/2; e++ {
			add(rng.Intn(n), rng.Intn(n))
		}
		return isp
	}
	a := mk("pa", 100, rng.Intn(6))
	b := mk("pb", 200, rng.Intn(6))
	return topology.NewPair(a, b)
}

// TestNoRealLossProperty is the repository's core invariant: over random
// topologies and workloads, truthful distance negotiation never leaves
// either ISP carrying more distance than the default. Floor-rounded
// classes are lower bounds on real improvements and the terminal unwind
// guarantees non-negative final class gains, so real losses are
// impossible up to floating-point noise.
func TestNoRealLossProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		pair := randomPair(rng)
		if err := pair.A.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := pair.B.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if pair.NumInterconnections() < 2 {
			continue
		}
		s := pairsim.New(pair, nil)
		rev := s.Reverse()
		wAB := traffic.New(pair.A, pair.B, traffic.Identical, nil)
		wBA := traffic.New(pair.B, pair.A, traffic.Identical, nil)
		items := Items(wAB.Flows, wBA.Flows)
		defaults := make([]int, len(items))
		for i, it := range items {
			if it.Dir == AtoB {
				defaults[i] = s.EarlyExit(it.Flow)
			} else {
				defaults[i] = rev.EarlyExit(it.Flow)
			}
		}
		evalA := NewDistanceEvaluator(s, SideA, 10)
		evalB := NewDistanceEvaluator(s, SideB, 10)
		res, err := Negotiate(DefaultDistanceConfig(), evalA, evalB, items, defaults, s.NumAlternatives())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		dist := func(assign []int) (inA, inB float64) {
			for i, it := range items {
				k := assign[i]
				if it.Dir == AtoB {
					inA += s.UpDistKm(it.Flow, k)
					inB += s.DownDistKm(it.Flow, k)
				} else {
					inB += rev.UpDistKm(it.Flow, k)
					inA += rev.DownDistKm(it.Flow, k)
				}
			}
			return inA, inB
		}
		defA, defB := dist(defaults)
		negA, negB := dist(res.Assign)
		if defA > 0 && negA > defA*1.0001 {
			t.Errorf("trial %d: ISP A lost %.3f%% real distance",
				trial, 100*(negA-defA)/defA)
		}
		if defB > 0 && negB > defB*1.0001 {
			t.Errorf("trial %d: ISP B lost %.3f%% real distance",
				trial, 100*(negB-defB)/defB)
		}
		// Joint total never degrades at all (every adopted move has
		// non-negative combined class gain and classes floor losses).
		if defA+defB > 0 && negA+negB > (defA+defB)*1.0001 {
			t.Errorf("trial %d: joint distance grew from %.0f to %.0f",
				trial, defA+defB, negA+negB)
		}
	}
}

// checkRoundInvariants checks the two invariants of the round protocol
// (DESIGN.md §2) on a Result. Joint gain never falls: the stop check ends
// a run at any proposal whose joint class is negative, so every accepted
// proposal has PrefA+PrefB >= 0. Round bound: a round either commits an
// item for good or vetoes an (item, alternative) pair for good, so Rounds
// = accepted + vetoed <= n·(na+1).
func checkRoundInvariants(res *Result, n, na int) error {
	if len(res.Transcript) != res.Rounds {
		return fmt.Errorf("%d rounds but %d transcript entries", res.Rounds, len(res.Transcript))
	}
	if res.Rounds > n*(na+1) {
		return fmt.Errorf("%d rounds for %d items × %d alternatives, past the bound %d", res.Rounds, n, na, n*(na+1))
	}
	for _, p := range res.Transcript {
		if p.Accepted && p.PrefA+p.PrefB < 0 {
			return fmt.Errorf("round %d accepted joint class %d", p.Round, p.PrefA+p.PrefB)
		}
	}
	return nil
}

// TestTerminationProperty: the engine always terminates, within the
// round bound, keeps the joint gain from falling and assigns a valid
// alternative to every item, across random preference tables.
func TestTerminationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 120; trial++ {
		na := 2 + rng.Intn(4)
		n := 1 + rng.Intn(12)
		mk := func() *StaticEvaluator {
			ev := &StaticEvaluator{NumAlts: na, Table: map[int][]int{}}
			for i := 0; i < n; i++ {
				prefs := make([]int, na)
				for k := range prefs {
					prefs[k] = rng.Intn(21) - 10
				}
				prefs[i%na] = 0 // default class 0 somewhere
				ev.Table[i] = prefs
			}
			return ev
		}
		items := make([]Item, n)
		defaults := make([]int, n)
		for i := 0; i < n; i++ {
			items[i] = Item{ID: i, Flow: traffic.Flow{ID: i, Size: 1 + rng.Float64()}}
			defaults[i] = i % na
		}
		cfg := Config{PrefBound: 10}
		if trial%4 == 0 {
			cfg.ReassignFraction = 0.25
		}
		res, err := Negotiate(cfg, mk(), mk(), items, defaults, na)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, a := range res.Assign {
			if a < 0 || a >= na {
				t.Fatalf("trial %d: item %d assigned %d (na=%d)", trial, i, a, na)
			}
		}
		if err := checkRoundInvariants(res, n, na); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
