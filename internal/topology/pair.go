package topology

import (
	"fmt"
	"math/bits"
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
// cities per ISP) — gen and Read both enforce it; AllPairs panics on an
// ISP that lists a city twice. Each ISP is a bitset over the universe's
// cities (see newCitySets): a candidate costs an AND and a popcount per
// word, and only the kept ones are built. Rows of the double loop are
// sharded over GOMAXPROCS goroutines and concatenated in row order. The
// pairs of one row share two backing arrays, so holding one pair holds
// its row's.
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
	sets := newCitySets(isps)
	rows := make([][]Pair, len(isps))
	runner.ForEachIndex(len(isps), 0, func(i int) {
		// Count the whole row first, so that the row's pairs and
		// interconnections are one allocation each.
		var partners []partner
		shared := 0
		a := sets.cities(i)
		for j := i + 1; j < len(isps); j++ {
			b := sets.cities(j)[:len(a)]
			n := 0
			for w := range a {
				n += bits.OnesCount64(a[w] & b[w])
			}
			if n < minInterconnections {
				continue
			}
			shared += n
			partners = append(partners, partner{isp: int32(j), end: int32(shared)})
		}
		pairs := make([]Pair, len(partners))
		ixs := make([]Interconnection, shared)
		start := int32(0)
		for k, pt := range partners {
			sets.fill(isps, i, int(pt.isp), ixs[start:pt.end])
			pairs[k] = Pair{A: isps[i], B: isps[pt.isp]}
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

// partner is a kept partner of a row's ISP: its index, and where its
// interconnections end in the row's list (they start where the previous
// partner's end).
type partner struct{ isp, end int32 }

// citySets is a universe's ISPs as bitsets over its cities, numbered in
// sorted-name order: bit c of ISP i's words is set when i has a PoP in
// city c. Walking the set bits of two ISPs' AND in ascending order
// meets their shared cities in NewPair's name order. pops maps a set
// bit back to its PoP: the PoP IDs of ISP i in city-number order, so a
// bit's rank among i's set bits indexes it.
type citySets struct {
	stride int      // uint64 words per ISP
	words  []uint64 // ISP i's bitset is words[i*stride : (i+1)*stride]
	pops   []int32  // ISP i's PoP IDs by city number, from popAt[i]
	popAt  []int32  // len(isps)+1 offsets into pops
}

// newCitySets numbers the ISPs' distinct cities and builds their
// bitsets. It panics, naming the ISP and the city, when an ISP lists a
// city twice: NewPair would match both of its PoPs, a bitset only one.
func newCitySets(isps []*ISP) *citySets {
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
	s := &citySets{
		stride: (len(names) + 63) / 64,
		pops:   make([]int32, 0, pops),
		popAt:  make([]int32, 1, len(isps)+1),
	}
	s.words = make([]uint64, len(isps)*s.stride)
	popOf := make([]int32, len(names)) // this ISP's PoP per city, scratch
	for i, isp := range isps {
		set := s.cities(i)
		for _, pop := range isp.PoPs {
			c := number[pop.City]
			w, bit := c/64, uint64(1)<<(c%64)
			if set[w]&bit != 0 {
				panic(fmt.Sprintf("topology: AllPairs: ISP %s lists city %q twice", isp.Name, pop.City))
			}
			set[w] |= bit
			popOf[c] = int32(pop.ID)
		}
		for w, word := range set {
			for ; word != 0; word &= word - 1 {
				s.pops = append(s.pops, popOf[w*64+bits.TrailingZeros64(word)])
			}
		}
		s.popAt = append(s.popAt, int32(len(s.pops)))
	}
	return s
}

// cities returns ISP i's bitset.
func (s *citySets) cities(i int) []uint64 { return s.words[i*s.stride : (i+1)*s.stride] }

// fill writes the interconnections of ISPs i and j, one per shared
// city in city order, into out, which holds exactly that many.
func (s *citySets) fill(isps []*ISP, i, j int, out []Interconnection) {
	a, b := isps[i], isps[j]
	aBits, bBits := s.cities(i), s.cities(j)
	aPoPs, bPoPs := s.pops[s.popAt[i]:s.popAt[i+1]], s.pops[s.popAt[j]:s.popAt[j+1]]
	aRank, bRank, k := 0, 0, 0 // set bits in the words before w
	for w := range aBits {
		for both := aBits[w] & bBits[w]; both != 0; both &= both - 1 {
			below := both&-both - 1
			ap := int(aPoPs[aRank+bits.OnesCount64(aBits[w]&below)])
			bp := int(bPoPs[bRank+bits.OnesCount64(bBits[w]&below)])
			out[k] = Interconnection{
				APoP:     ap,
				BPoP:     bp,
				City:     a.PoPs[ap].City,
				LengthKm: geo.DistanceKm(a.PoPs[ap].Loc, b.PoPs[bp].Loc),
			}
			k++
		}
		aRank += bits.OnesCount64(aBits[w])
		bRank += bits.OnesCount64(bBits[w])
	}
}
