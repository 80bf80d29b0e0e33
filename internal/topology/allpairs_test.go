package topology_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/geo"
	"repro/internal/topology"
)

// allPairsByNewPair is the enumeration AllPairs replaced, kept as its
// oracle: NewPair on every candidate of the double loop, then the
// filter.
func allPairsByNewPair(isps []*topology.ISP, minInterconnections int, excludeMesh bool) []*topology.Pair {
	var out []*topology.Pair
	for i := 0; i < len(isps); i++ {
		if excludeMesh && isps[i].IsMesh() {
			continue
		}
		for j := i + 1; j < len(isps); j++ {
			if excludeMesh && isps[j].IsMesh() {
				continue
			}
			p := topology.NewPair(isps[i], isps[j])
			if len(p.Interconnections) >= minInterconnections {
				out = append(out, p)
			}
		}
	}
	return out
}

// handBuiltUniverse is TestAllPairs' three ISPs (two sharing four
// cities, one sharing none) plus a full mesh over three of the cities
// and an ISP whose PoP order is not city order.
func handBuiltUniverse() []*topology.ISP {
	loc := map[string]geo.Point{
		"seattle":  {Lat: 47.6, Lon: -122.3},
		"denver":   {Lat: 39.7, Lon: -105.0},
		"chicago":  {Lat: 41.9, Lon: -87.6},
		"new york": {Lat: 40.7, Lon: -74.0},
		"tokyo":    {Lat: 35.7, Lon: 139.7},
	}
	isp := func(name string, mesh bool, cities ...string) *topology.ISP {
		n := &topology.ISP{Name: name}
		for i, c := range cities {
			n.PoPs = append(n.PoPs, topology.PoP{ID: i, City: c, Loc: loc[c]})
			for j := 0; j < i; j++ {
				if mesh || j == i-1 {
					n.Links = append(n.Links, topology.Link{A: j, B: i, Weight: 1})
				}
			}
		}
		return n
	}
	return []*topology.ISP{
		isp("a", false, "seattle", "denver", "chicago", "new york"),
		isp("b", false, "seattle", "denver", "chicago", "new york"),
		isp("c", false, "tokyo"),
		isp("m", true, "chicago", "denver", "seattle"),
		isp("z", false, "tokyo", "new york", "chicago", "seattle"),
	}
}

func TestAllPairsMatchesNewPair(t *testing.T) {
	universes := map[string][]*topology.ISP{"hand-built": handBuiltUniverse()}
	for _, n := range []int{65, 96, 256} {
		cfg := gen.DefaultConfig()
		cfg.NumISPs = n
		isps, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		universes[fmt.Sprintf("%d ISPs", n)] = isps
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, isps := range universes {
		for _, min := range []int{0, 1, 2, 3} {
			for _, excludeMesh := range []bool{false, true} {
				want := allPairsByNewPair(isps, min, excludeMesh)
				for _, procs := range []int{1, 4} {
					runtime.GOMAXPROCS(procs)
					got := topology.AllPairs(isps, min, excludeMesh)
					label := fmt.Sprintf("%s min=%d excludeMesh=%v GOMAXPROCS=%d", name, min, excludeMesh, procs)
					if len(got) != len(want) {
						t.Fatalf("%s: %d pairs, NewPair double loop gives %d", label, len(got), len(want))
					}
					for i := range want {
						if got[i].A != want[i].A || got[i].B != want[i].B {
							t.Fatalf("%s: pair %d is %v, want %v", label, i, got[i], want[i])
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: pairs differ from the NewPair double loop", label)
					}
					// DeepEqual holds 0 == -0; the figures print lengths, so
					// compare bits as well.
					for i := range want {
						for k, ix := range want[i].Interconnections {
							if g := got[i].Interconnections[k].LengthKm; math.Float64bits(g) != math.Float64bits(ix.LengthKm) {
								t.Fatalf("%s: pair %d interconnection %d LengthKm %v, want %v", label, i, k, g, ix.LengthKm)
							}
						}
					}
				}
			}
		}
	}
}

func TestAllPairsRejectsDuplicateCity(t *testing.T) {
	isps := handBuiltUniverse()
	dup := isps[1]
	dup.PoPs = append(dup.PoPs, topology.PoP{ID: len(dup.PoPs), City: "denver", Loc: dup.PoPs[1].Loc})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `ISP b lists city "denver" twice`) {
			t.Fatalf("AllPairs on an ISP listing a city twice: panic %q, want one naming the ISP and the city", msg)
		}
	}()
	topology.AllPairs(isps, 2, true)
}

// fuzzUniverse decodes a small universe from data: 2–12 ISPs, each a
// path or a full mesh over up to 20 distinct cities drawn from 150
// names (so up to three bitset words), listed in data's order rather
// than city order, with a per-ISP coordinate offset so that shared
// cities have non-zero interconnection lengths. Names are decimal
// numbers, so the sorted-name numbering differs from the numeric one.
func fuzzUniverse(data []byte) []*topology.ISP {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	const names = 150
	isps := make([]*topology.ISP, 2+next()%11)
	for i := range isps {
		flags := next()
		isp := &topology.ISP{Name: "isp" + strconv.Itoa(i)}
		add := func(c int) {
			isp.PoPs = append(isp.PoPs, topology.PoP{
				ID:   len(isp.PoPs),
				City: strconv.Itoa(c),
				Loc:  geo.Point{Lat: float64(c%160-80) + float64(flags>>4)/64, Lon: float64(c*7%340-170) - float64(flags&7)/32},
			})
		}
		seen := map[int]bool{}
		for n := next() % 21; len(isp.PoPs) < n && len(data) > 0; {
			if c := next() % names; !seen[c] {
				seen[c] = true
				add(c)
			}
		}
		if len(isp.PoPs) == 0 {
			add(i)
		}
		for b := 1; b < len(isp.PoPs); b++ {
			for a := 0; a < b; a++ {
				if flags&8 != 0 || a == b-1 {
					isp.Links = append(isp.Links, topology.Link{A: a, B: b, Weight: 1})
				}
			}
		}
		isps[i] = isp
	}
	return isps
}

// FuzzAllPairs holds the bitset enumeration to the NewPair double loop
// on small random universes, at every minInterconnections from 0 to 4,
// with and without mesh exclusion.
func FuzzAllPairs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 4, 1, 2, 3, 4, 8, 5, 1, 2, 3, 4, 5, 0, 3, 4, 3, 2})
	// Twelve ISPs of 20 cities that together list all 150 names.
	dense := []byte{10}
	for i := 0; i < 12; i++ {
		dense = append(dense, byte(i*21), 20)
		for k := 0; k < 20; k++ {
			dense = append(dense, byte((i*13+k*7)%150))
		}
	}
	f.Add(dense)
	f.Fuzz(func(t *testing.T, data []byte) {
		isps := fuzzUniverse(data)
		for _, isp := range isps {
			if err := isp.Validate(); err != nil {
				t.Fatalf("fuzzUniverse built an invalid ISP: %v", err)
			}
		}
		for min := 0; min <= 4; min++ {
			for _, excludeMesh := range []bool{false, true} {
				want := allPairsByNewPair(isps, min, excludeMesh)
				got := topology.AllPairs(isps, min, excludeMesh)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("min=%d excludeMesh=%v: AllPairs gives %v, NewPair double loop %v", min, excludeMesh, got, want)
				}
			}
		}
	})
}
