package nexit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pairsim"
	"repro/internal/traffic"
)

// distKm returns the distance the item travels inside this ISP via
// interconnection k, read straight from the routing table: the oracle
// the DistanceEvaluator's rows are held to.
func (v view) distKm(it Item, k int) float64 {
	own := v.ixs[k].BPoP
	if v.side == SideA {
		own = v.ixs[k].APoP
	}
	if v.upstream(it) {
		return v.table.LengthKm(it.Flow.Src, own)
	}
	return v.table.LengthKm(own, it.Flow.Dst)
}

// oracleDeltas is the DistanceEvaluator's RawDeltas computed with
// distKm: the default's distance minus each alternative's.
func oracleDeltas(v view, items []Item, defaults []int) [][]float64 {
	out := make([][]float64, len(items))
	for i, it := range items {
		out[i] = make([]float64, len(v.ixs))
		base := v.distKm(it, defaults[i])
		for k := range out[i] {
			out[i][k] = base - v.distKm(it, k)
		}
	}
	return out
}

// FuzzDistanceEvaluatorMatchesOracle holds both sides' distance
// evaluators to the LengthKm oracle, bit for bit, on the item sets
// GroupNegotiate and the scalability driver hand them: random subsets
// of a pair's items, renumbered from zero, with arbitrary defaults. The
// pair may have lost interconnections (down to one, where every delta
// is zero) and the system may be reversed. Each evaluator first maps
// the full table, so the subset is mapped on a scratch holding another
// table's cells, and its classes must still equal those mapped on a
// zeroed scratch.
func FuzzDistanceEvaluatorMatchesOracle(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, []byte{byte(seed), byte(3 * seed), byte(seed), 0x15, 0, 3, 1, 7, 200, 9, 31})
	}
	f.Add(int64(7), []byte{3, 0, 0, 0, 0x02, 5, 4, 3, 2, 1})
	f.Add(int64(8), []byte{0, 1, 0x23, 10, 10, 10, 250, 1})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		pair := randomPair(rand.New(rand.NewSource(seed)))
		for drop := next() % pair.NumInterconnections(); drop > 0; drop-- {
			pair = pair.WithoutInterconnection(next() % pair.NumInterconnections())
		}
		s := pairsim.New(pair, nil)
		if next()&1 == 1 {
			s = s.Reverse()
		}
		na := s.NumAlternatives()
		mode := next()
		p, mapping, scale := 1+mode%20, Mapping(mode>>5&1), Scale(mode>>6&1)

		wAB := traffic.New(s.Pair.A, s.Pair.B, traffic.Identical, nil)
		wBA := traffic.New(s.Pair.B, s.Pair.A, traffic.Identical, nil)
		all := Items(wAB.Flows, wBA.Flows)
		if len(all) == 0 {
			return
		}
		allDefaults := make([]int, len(all))
		for i := range all {
			allDefaults[i] = (i * 7) % na
		}
		var items []Item
		var defaults []int
		for len(data) > 0 && len(items) < 96 {
			it := all[next()*len(all)/256]
			it.ID = len(items)
			items = append(items, it)
			defaults = append(defaults, next()%na)
		}

		for _, side := range []Side{SideA, SideB} {
			e := NewDistanceEvaluator(s, side, p)
			e.Mapping, e.Scale = mapping, scale
			e.Prefs(all, allDefaults)
			want := oracleDeltas(e.view, items, defaults)
			wantClasses := mapDeltas(want, p, mapping, scale, &evalScratch{})
			label := fmt.Sprintf("side %v, %d items, %d alternatives, %v/%v P=%d", side, len(items), na, mapping, scale, p)
			classes := e.Prefs(items, defaults)
			for i := range items {
				for k := 0; k < na; k++ {
					if classes[i][k] != wantClasses[i][k] {
						t.Fatalf("%s: Prefs[%d][%d] = %d, oracle %d", label, i, k, classes[i][k], wantClasses[i][k])
					}
				}
			}
			got := e.RawDeltas(items, defaults)
			for i := range items {
				for k := 0; k < na; k++ {
					if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
						t.Fatalf("%s: RawDeltas[%d][%d] = %v, oracle %v", label, i, k, got[i][k], want[i][k])
					}
				}
			}
			e.Release()
		}
	})
}
