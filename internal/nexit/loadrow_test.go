package nexit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/capacity"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/pairsim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// pathLinks returns the own-network links used by the item via
// interconnection k as a zero-allocation view into the path index
// (valid for the table's lifetime; callers must not modify it). The
// caller must have resolved v.idx (load-based evaluators do so at
// construction).
func (v view) pathLinks(it Item, k int) []int32 {
	if v.upstream(it) {
		return v.idx.To(k, it.Flow.Src)
	}
	return v.idx.From(k, it.Flow.Dst)
}

// alternativeCost is the worst post-placement load ratio on the item's
// own-network path for alternative k; an empty path (the flow enters and
// leaves at the same PoP) costs nothing.
func (e *BandwidthEvaluator) alternativeCost(it Item, k int) float64 {
	links := e.view.pathLinks(it, k)
	if len(links) == 0 {
		return 0
	}
	return metrics.MaxIncreaseOnPath32(e.Load, e.Cap, links, it.Flow.Size)
}

// alternativeCost is the marginal Fortz–Thorup cost of placing the flow
// on alternative k.
func (e *FortzThorupEvaluator) alternativeCost(it Item, k int) float64 {
	var cost float64
	for _, li := range e.view.pathLinks(it, k) {
		cost += metrics.FortzThorupLink(e.Load[li]+it.Flow.Size, e.Cap[li]) -
			metrics.FortzThorupLink(e.Load[li], e.Cap[li])
	}
	return cost
}

// oracleLoadRow is the load evaluators' row as it was written before the
// default's own entry became base - base: the default's cost minus each
// alternative's, every cost computed afresh.
func oracleLoadRow(cost func(Item, int) float64, it Item, def int, row []float64) {
	base := cost(it, def)
	for k := range row {
		row[k] = base - cost(it, k)
	}
}

// loadCase is one failure case's load-evaluator input, built as the
// failure experiments build it: capacities from the pre-failure
// early-exit loads of gravity traffic, the failed interconnection's
// flows as the items with their post-failure early exit as default,
// every other flow as fixed load.
type loadCase struct {
	name                               string
	s                                  *pairsim.System
	items                              []Item
	defaults                           []int
	fixedUp, fixedDown, capUp, capDown []float64
}

// loadCases18 returns every failure case of the 18-ISP default
// dataset's pairs with three or more interconnections; under -short, a
// seeded sample of 12.
func loadCases18(t *testing.T) []*loadCase {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 18
	isps, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := pairsim.NewTableCache()
	var cases []*loadCase
	for _, pair := range topology.AllPairs(isps, 3, true) {
		s := pairsim.New(pair, cache)
		w := traffic.New(pair.A, pair.B, traffic.Gravity, nil)
		pre := make(pairsim.Assignment, len(w.Flows))
		for _, f := range w.Flows {
			pre[f.ID] = s.EarlyExit(f)
		}
		loadUp, loadDown := s.Loads(w.Flows, pre)
		capUp, capDown := capacity.Assign(loadUp, capacity.Options{}), capacity.Assign(loadDown, capacity.Options{})
		for k := 0; k < pair.NumInterconnections(); k++ {
			c := &loadCase{
				name:      fmt.Sprintf("%s-%s failing %d", pair.A.Name, pair.B.Name, k),
				s:         pairsim.New(pair.WithoutInterconnection(k), cache),
				fixedUp:   make([]float64, len(pair.A.Links)),
				fixedDown: make([]float64, len(pair.B.Links)),
				capUp:     capUp,
				capDown:   capDown,
			}
			for _, f := range w.Flows {
				switch alt := pre[f.ID]; {
				case alt == k:
					f.ID = len(c.items)
					c.items = append(c.items, Item{ID: f.ID, Flow: f, Dir: AtoB})
					c.defaults = append(c.defaults, c.s.EarlyExit(f))
				case alt > k:
					c.s.AddFlowLoad(c.fixedUp, c.fixedDown, f, alt-1)
				default:
					c.s.AddFlowLoad(c.fixedUp, c.fixedDown, f, alt)
				}
			}
			if len(c.items) > 0 {
				cases = append(cases, c)
			}
		}
	}
	if len(cases) < 40 {
		t.Fatalf("%d failure cases, want the 18-ISP dataset's bandwidth cases", len(cases))
	}
	if testing.Short() {
		rng := rand.New(rand.NewSource(3))
		rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
		cases = cases[:12]
	}
	return cases
}

// TestLoadRowsMatchOracle holds both load evaluators' rows, on both
// sides, to oracleLoadRow bit for bit over the 18-ISP failure cases: at
// the fixed load, then after each third of the items is committed to a
// seeded alternative, so rows are also compared on the loads a
// negotiation leaves.
func TestLoadRowsMatchOracle(t *testing.T) {
	rows := 0
	for _, c := range loadCases18(t) {
		na := c.s.NumAlternatives()
		for _, side := range []Side{SideA, SideB} {
			load, capv := c.fixedUp, c.capUp
			if side == SideB {
				load, capv = c.fixedDown, c.capDown
			}
			bw := NewBandwidthEvaluator(c.s, side, 10, load, capv)
			ft := NewFortzThorupEvaluator(c.s, side, 10, load, capv)
			for _, e := range []struct {
				name string
				ev   interface {
					RawDeltas([]Item, []int) [][]float64
					Commit(Item, int)
				}
				cost func(Item, int) float64
			}{
				{"bandwidth", bw, bw.alternativeCost},
				{"fortz-thorup", ft, ft.alternativeCost},
			} {
				rng := rand.New(rand.NewSource(int64(len(c.items))))
				want := make([]float64, na)
				for step := 0; step < 3; step++ {
					got := e.ev.RawDeltas(c.items, c.defaults)
					for i, it := range c.items {
						oracleLoadRow(e.cost, it, c.defaults[i], want)
						for k := range want {
							if math.Float64bits(got[i][k]) != math.Float64bits(want[k]) {
								t.Fatalf("%s, side %v, %s, step %d: item %d alternative %d: %v, oracle %v",
									c.name, side, e.name, step, i, k, got[i][k], want[k])
							}
						}
						rows++
					}
					for i := step; i < len(c.items); i += 3 {
						e.ev.Commit(c.items[i], rng.Intn(na))
					}
				}
			}
			bw.Release()
			ft.Release()
		}
	}
	t.Logf("%d rows match", rows)
}

// fuzzValues are the special values FuzzLoadRowsMatchOracle draws loads,
// capacities and flow sizes from: both zeros, negatives, the extremes
// and the non-finite.
var fuzzValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 2, 1.0 / 3, 0.9, 1.1, 100, -0.25,
	1e-300, 1e300, math.Inf(1), math.Inf(-1), math.NaN(),
}

// sameFloat reports whether a and b have the same bits, any two NaNs
// matching: which operand's payload a NaN sum carries depends on the
// operand order the compiler picks for a commutative add, and the row
// and the oracle are compiled apart.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// FuzzLoadRowsMatchOracle varies what TestLoadRowsMatchOracle takes from
// the failure experiments: on the 12-ISP dataset's pair with the most
// interconnections, the input draws both sides' loads and capacities
// (zero, negative and non-finite included), the items (either direction)
// with their flow sizes (±0 included) and defaults, and a sequence of
// commits and reverts. Both load evaluators' rows must equal the
// per-alternative oracle bit for bit (any two NaNs matching) before and
// after the sequence, and their loads must equal the parent-chain
// walk's.
func FuzzLoadRowsMatchOracle(f *testing.F) {
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 12
	isps, err := gen.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var pair *topology.Pair
	for _, p := range topology.AllPairs(isps, 3, true) {
		if pair == nil || p.NumInterconnections() > pair.NumInterconnections() {
			pair = p
		}
	}
	s := pairsim.New(pair, nil)
	all := Items(traffic.New(pair.A, pair.B, traffic.Gravity, nil).Flows,
		traffic.New(pair.B, pair.A, traffic.Gravity, nil).Flows)
	na := s.NumAlternatives()

	f.Add([]byte{})
	f.Add([]byte{7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{31, 2, 200, 17, 1, 0, 255, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 9, 130})
	f.Add([]byte{12, 1, 1, 1, 2, 2, 2, 14, 15, 160, 90, 0, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		// next cycles through the input, so a short one still fills
		// every vector.
		pos := 0
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return int(b)
		}
		value := func() float64 {
			switch b := next(); {
			case b < len(fuzzValues):
				return fuzzValues[b]
			case b == 0xff:
				var raw uint64
				for range 8 {
					raw = raw<<8 | uint64(next())
				}
				return math.Float64frombits(raw)
			default:
				return float64(b-128) / 16
			}
		}
		items, defaults := make([]Item, 1+next()%32), []int(nil)
		for i := range items {
			items[i] = all[(next()<<8|next())%len(all)]
			items[i].ID, items[i].Flow.Size = i, value()
			defaults = append(defaults, next()%na)
		}
		// steps[j] moves item j%len(items) to alternative alt, by a
		// revert back to its default when revert is set.
		type step struct {
			alt    int
			revert bool
		}
		steps := make([]step, next()%64)
		for j := range steps {
			steps[j] = step{next() % na, next()%4 == 0}
		}

		for _, side := range []Side{SideA, SideB} {
			table := s.Up
			if side == SideB {
				table = s.Down
			}
			load, capv := make([]float64, len(table.ISP.Links)), make([]float64, len(table.ISP.Links))
			for l := range load {
				load[l], capv[l] = value(), value()
			}
			bw := NewBandwidthEvaluator(s, side, 10, load, capv)
			ft := NewFortzThorupEvaluator(s, side, 10, load, capv)
			for _, e := range []struct {
				name string
				ev   *loadEvaluator
				cost func(Item, int) float64
			}{
				{"bandwidth", &bw.loadEvaluator, bw.alternativeCost},
				{"fortz-thorup", &ft.loadEvaluator, ft.alternativeCost},
			} {
				label := fmt.Sprintf("side %v, %s, %d items, %d steps", side, e.name, len(items), len(steps))
				checkRows := func(when string) {
					want := make([]float64, na)
					got := e.ev.RawDeltas(items, defaults)
					for i, it := range items {
						oracleLoadRow(e.cost, it, defaults[i], want)
						for k := range want {
							if !sameFloat(got[i][k], want[k]) {
								t.Fatalf("%s, %s: item %d alternative %d: %v, oracle %v",
									label, when, i, k, got[i][k], want[k])
							}
						}
					}
				}
				checkRows("before the steps")

				wantLoad := append([]float64(nil), load...)
				walk := func(it Item, k int, size float64) {
					own := e.ev.view.ixs[k].BPoP
					if side == SideA {
						own = e.ev.view.ixs[k].APoP
					}
					if e.ev.view.upstream(it) {
						table.AddLoad(wantLoad, it.Flow.Src, own, size)
					} else {
						table.AddLoad(wantLoad, own, it.Flow.Dst, size)
					}
				}
				for j, st := range steps {
					it, def := items[j%len(items)], defaults[j%len(items)]
					e.ev.Commit(it, st.alt)
					walk(it, st.alt, it.Flow.Size)
					if st.revert {
						e.ev.Revert(it, st.alt, def)
						walk(it, st.alt, -it.Flow.Size)
						walk(it, def, it.Flow.Size)
					}
				}
				for l := range wantLoad {
					if !sameFloat(e.ev.Load[l], wantLoad[l]) {
						t.Fatalf("%s: link %d load %v, parent chain %v", label, l, e.ev.Load[l], wantLoad[l])
					}
				}
				checkRows("after the steps")
			}
			bw.Release()
			ft.Release()
		}
	})
}
