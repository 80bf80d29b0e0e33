package topology

import (
	"fmt"
	"sort"

	"repro/internal/geo"
	"repro/internal/runner"
)

// Interconnection is one inter-ISP link between a pair of ISPs. In
// practice neighboring ISPs interconnect at shared exchange points, so an
// interconnection joins the two ISPs' PoPs in the same city and its
// geographic length is (near) zero.
type Interconnection struct {
	APoP     int     // PoP ID in the first ISP
	BPoP     int     // PoP ID in the second ISP
	City     string  // city where the ISPs meet
	LengthKm float64 // geographic length of the interconnection link
}

// Pair is a pair of neighboring ISPs together with the set of
// interconnections between them. Traffic flows in both directions; the
// "upstream" ISP for a flow is the one containing its source PoP.
type Pair struct {
	A, B             *ISP
	Interconnections []Interconnection
}

// NewPair discovers the interconnections between two ISPs as the cities
// where both have a PoP, mirroring how the paper's dataset derives
// peering locations. The interconnections are sorted by city name for
// determinism.
func NewPair(a, b *ISP) *Pair {
	p := &Pair{A: a, B: b}
	bByCity := make(map[string]int, len(b.PoPs))
	for _, pop := range b.PoPs {
		bByCity[pop.City] = pop.ID
	}
	for _, pop := range a.PoPs {
		if bID, ok := bByCity[pop.City]; ok {
			p.Interconnections = append(p.Interconnections, Interconnection{
				APoP:     pop.ID,
				BPoP:     bID,
				City:     pop.City,
				LengthKm: geo.DistanceKm(pop.Loc, b.PoPs[bID].Loc),
			})
		}
	}
	sort.Slice(p.Interconnections, func(i, j int) bool {
		return p.Interconnections[i].City < p.Interconnections[j].City
	})
	return p
}

// NumInterconnections returns the number of interconnections.
func (p *Pair) NumInterconnections() int { return len(p.Interconnections) }

// Validate checks that interconnection endpoints are in range and cities
// are distinct.
func (p *Pair) Validate() error {
	if p.A == nil || p.B == nil {
		return fmt.Errorf("topology: pair with nil ISP")
	}
	seen := make(map[string]bool)
	for i, ix := range p.Interconnections {
		if ix.APoP < 0 || ix.APoP >= len(p.A.PoPs) {
			return fmt.Errorf("topology: pair %s-%s interconnection %d APoP out of range", p.A.Name, p.B.Name, i)
		}
		if ix.BPoP < 0 || ix.BPoP >= len(p.B.PoPs) {
			return fmt.Errorf("topology: pair %s-%s interconnection %d BPoP out of range", p.A.Name, p.B.Name, i)
		}
		if seen[ix.City] {
			return fmt.Errorf("topology: pair %s-%s duplicate interconnection city %q", p.A.Name, p.B.Name, ix.City)
		}
		seen[ix.City] = true
		if ix.LengthKm < 0 {
			return fmt.Errorf("topology: pair %s-%s interconnection %d negative length", p.A.Name, p.B.Name, i)
		}
	}
	return nil
}

// Reversed returns the pair with the roles of A and B swapped (and
// interconnection endpoints swapped accordingly). The underlying ISPs are
// shared, not copied.
func (p *Pair) Reversed() *Pair {
	r := &Pair{A: p.B, B: p.A}
	r.Interconnections = make([]Interconnection, len(p.Interconnections))
	for i, ix := range p.Interconnections {
		r.Interconnections[i] = Interconnection{
			APoP: ix.BPoP, BPoP: ix.APoP, City: ix.City, LengthKm: ix.LengthKm,
		}
	}
	return r
}

// WithoutInterconnection returns a copy of the pair with interconnection
// index k removed, simulating the failure scenario of paper §5.2. The
// underlying ISPs are shared.
func (p *Pair) WithoutInterconnection(k int) *Pair {
	if k < 0 || k >= len(p.Interconnections) {
		panic(fmt.Sprintf("topology: WithoutInterconnection index %d out of range", k))
	}
	r := &Pair{A: p.A, B: p.B}
	r.Interconnections = append(r.Interconnections, p.Interconnections[:k]...)
	r.Interconnections = append(r.Interconnections, p.Interconnections[k+1:]...)
	return r
}

// String identifies the pair by ISP names and interconnection count.
func (p *Pair) String() string {
	return fmt.Sprintf("%s<->%s (%d interconnections)", p.A.Name, p.B.Name, len(p.Interconnections))
}

// AllPairs forms every pair among the given ISPs that has at least
// minInterconnections interconnections and where neither topology is a
// logical mesh (the paper excludes mesh ISPs from distance experiments
// and requires >=2 interconnections for distance, >=3 for the bandwidth
// failure experiments).
//
// Every element equals NewPair of its two ISPs, in the order of the
// (i, j > i) double loop over isps, for ISPs that pass Validate (unique
// cities per ISP) — gen and Read both enforce it. Candidates are tested
// by a linear merge of per-ISP city lists (see cityLists) and only the
// kept ones are built; rows of the double loop are sharded over
// GOMAXPROCS goroutines and concatenated in row order. The pairs of one
// row share two backing arrays, so holding one pair holds its row's.
func AllPairs(isps []*ISP, minInterconnections int, excludeMesh bool) []*Pair {
	if excludeMesh {
		kept := make([]*ISP, 0, len(isps))
		for _, isp := range isps {
			if !isp.IsMesh() {
				kept = append(kept, isp)
			}
		}
		isps = kept
	}
	lists := cityLists(isps)
	rows := make([][]Pair, len(isps))
	runner.ForEachIndex(len(isps), 0, func(i int) {
		// Merge the whole row into pointer-free scratch first, so that
		// the row's pairs and interconnections are one allocation each.
		var (
			partners []partner
			shared   []popPair
		)
		for j := i + 1; j < len(isps); j++ {
			mark := len(shared)
			shared = intersect(lists[i], lists[j], shared)
			if len(shared)-mark < minInterconnections {
				shared = shared[:mark]
				continue
			}
			partners = append(partners, partner{isp: int32(j), end: int32(len(shared))})
		}
		a := isps[i]
		pairs := make([]Pair, len(partners))
		ixs := make([]Interconnection, len(shared))
		start := int32(0)
		for k, pt := range partners {
			b := isps[pt.isp]
			for x := start; x < pt.end; x++ {
				ap, bp := int(shared[x].a), int(shared[x].b)
				ixs[x] = Interconnection{
					APoP:     ap,
					BPoP:     bp,
					City:     a.PoPs[ap].City,
					LengthKm: geo.DistanceKm(a.PoPs[ap].Loc, b.PoPs[bp].Loc),
				}
			}
			pairs[k] = Pair{A: a, B: b}
			if pt.end > start { // none stays nil, as in NewPair
				// Capacity clipped: an append must not reach the next pair's.
				pairs[k].Interconnections = ixs[start:pt.end:pt.end]
			}
			start = pt.end
		}
		rows[i] = pairs
	})
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	if total == 0 {
		return nil
	}
	out := make([]*Pair, 0, total)
	for _, row := range rows {
		for k := range row {
			out = append(out, &row[k])
		}
	}
	return out
}

// cityPoP is one PoP of an ISP under the universe's city numbering.
type cityPoP struct{ city, pop int32 }

// popPair is one interconnection found by a merge: the PoP IDs in the
// row's ISP and in its partner.
type popPair struct{ a, b int32 }

// partner is a kept partner of a row's ISP: its index, and where its
// interconnections end in the row's popPair list (they start where the
// previous partner's end).
type partner struct{ isp, end int32 }

// cityLists numbers the distinct cities of the ISPs in sorted-name
// order and returns, per ISP, its PoPs as (city number, PoP ID) sorted
// by city number. Numbers order as names do, so a merge of two lists
// meets shared cities in the city-name order NewPair sorts into.
func cityLists(isps []*ISP) [][]cityPoP {
	number := make(map[string]int32)
	pops := 0
	for _, isp := range isps {
		pops += len(isp.PoPs)
		for _, pop := range isp.PoPs {
			number[pop.City] = 0
		}
	}
	names := make([]string, 0, len(number))
	for name := range number {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		number[name] = int32(i)
	}
	flat := make([]cityPoP, 0, pops) // one backing array, one sublist per ISP
	lists := make([][]cityPoP, len(isps))
	for i, isp := range isps {
		start := len(flat)
		for _, pop := range isp.PoPs {
			flat = append(flat, cityPoP{city: number[pop.City], pop: int32(pop.ID)})
		}
		list := flat[start:]
		sort.Slice(list, func(x, y int) bool { return list[x].city < list[y].city })
		lists[i] = list
	}
	return lists
}

// intersect appends to out one popPair per city the two lists share, in
// city order.
func intersect(a, b []cityPoP, out []popPair) []popPair {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].city < b[j].city:
			i++
		case a[i].city > b[j].city:
			j++
		default:
			out = append(out, popPair{a: a[i].pop, b: b[j].pop})
			i++
			j++
		}
	}
	return out
}
