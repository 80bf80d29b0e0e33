package topology_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
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
