package nexit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/capacity"
	"repro/internal/gen"
	"repro/internal/pairsim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

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
