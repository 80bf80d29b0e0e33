package optimal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/capacity"
	"repro/internal/gen"
	"repro/internal/pairsim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// lpCase is the input of one failure case's bandwidth LP.
type lpCase struct {
	name                               string
	s                                  *pairsim.System
	flows                              []traffic.Flow
	fixedUp, fixedDown, capUp, capDown []float64
}

// solve runs Bandwidth and returns its result with the joint links
// whose rows it dropped, or keeps every link row when all is set.
func (c *lpCase) solve(t *testing.T, all bool) (*BandwidthResult, []int) {
	t.Helper()
	var dropped []int
	drop := func(l int, maxLoad, capl, maxFixedRatio float64) bool {
		if impliedByBound(maxLoad, capl, maxFixedRatio) {
			dropped = append(dropped, l)
			return true
		}
		return false
	}
	if all {
		drop = nil
	}
	res, err := bandwidth(c.s, c.flows, c.fixedUp, c.fixedDown, c.capUp, c.capDown, drop)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return res, dropped
}

// failureCases30 returns the bandwidth LPs of every failure case of the
// 30-ISP default dataset under the Gravity workload, built as the
// failure experiments build them (paper §5.2): capacities from
// pre-failure early-exit loads, the failed interconnection's flows
// rerouted, everything else fixed load. Under -short it returns a seeded
// subset of 40.
func failureCases30(t *testing.T) []*lpCase {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 30
	isps, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := pairsim.NewTableCache()
	var cases []*lpCase
	for _, pair := range topology.AllPairs(isps, 3, true) {
		s := pairsim.New(pair, cache)
		w := traffic.New(pair.A, pair.B, traffic.Gravity, nil)
		pre := baseline.EarlyExit(s, w.Flows)
		loadUp, loadDown := s.Loads(w.Flows, pre)
		capUp, capDown := capacity.Assign(loadUp, capacity.Options{}), capacity.Assign(loadDown, capacity.Options{})
		for k := 0; k < pair.NumInterconnections(); k++ {
			c := &lpCase{
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
					f.ID = len(c.flows)
					c.flows = append(c.flows, f)
				case alt > k:
					c.s.AddFlowLoad(c.fixedUp, c.fixedDown, f, alt-1)
				default:
					c.s.AddFlowLoad(c.fixedUp, c.fixedDown, f, alt)
				}
			}
			if len(c.flows) > 0 {
				cases = append(cases, c)
			}
		}
	}
	if len(cases) < 200 {
		t.Fatalf("%d failure cases, want the 30-ISP dataset's ~290", len(cases))
	}
	if testing.Short() {
		rng := rand.New(rand.NewSource(7))
		rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
		cases = cases[:40]
	}
	return cases
}

// TestImpliedRowsMoveNoBit: dropping the link rows the global bound
// implies leaves every output bit of every 30-ISP failure case's LP as
// the full LP gives it, and each dropped row's margin, recomputed path
// by path, clears the tie window.
func TestImpliedRowsMoveNoBit(t *testing.T) {
	dropped := 0
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, c := range failureCases30(t) {
		got, links := c.solve(t, false)
		want, _ := c.solve(t, true)
		if !same(got.MEL, want.MEL) || !same(got.MELUp, want.MELUp) || !same(got.MELDown, want.MELDown) {
			t.Fatalf("%s: MELs %v/%v/%v, full LP %v/%v/%v", c.name,
				got.MEL, got.MELUp, got.MELDown, want.MEL, want.MELUp, want.MELDown)
		}
		for i := range want.Fractions {
			for k := range want.Fractions[i] {
				if !same(got.Fractions[i][k], want.Fractions[i][k]) {
					t.Fatalf("%s: flow %d alternative %d: fraction %v, full LP %v",
						c.name, i, k, got.Fractions[i][k], want.Fractions[i][k])
				}
			}
		}
		c.checkMargins(t, links)
		dropped += len(links)
	}
	t.Logf("%d link rows dropped", dropped)
	if dropped == 0 {
		t.Error("no link row dropped: the filter never ran")
	}
}

// checkMargins recomputes the largest possible load of each dropped
// joint link from the routing tables, alternative by alternative, and
// fails unless cap*maxFixedRatio exceeds it by more than the tie window.
func (c *lpCase) checkMargins(t *testing.T, dropped []int) {
	t.Helper()
	fixed := append(append([]float64(nil), c.fixedUp...), c.fixedDown...)
	capAll := append(append([]float64(nil), c.capUp...), c.capDown...)
	maxLoad := append([]float64(nil), fixed...)
	nUp := len(c.fixedUp)
	for _, f := range c.flows {
		most := make([]float64, len(fixed)) // f's load on each link under its worst alternative
		for k := 0; k < c.s.NumAlternatives(); k++ {
			load := make([]float64, len(fixed))
			c.s.AddFlowLoad(load[:nUp], load[nUp:], f, k)
			for l, v := range load {
				most[l] = math.Max(most[l], v)
			}
		}
		for l, v := range most {
			maxLoad[l] += v
		}
	}
	maxFixedRatio := 0.0
	for l := range capAll {
		if capAll[l] > 0 {
			maxFixedRatio = math.Max(maxFixedRatio, fixed[l]/capAll[l])
		}
	}
	for _, l := range dropped {
		margin := capAll[l]*maxFixedRatio - maxLoad[l]
		if window := tieWindow(maxLoad[l], capAll[l]); !(margin > window) {
			t.Errorf("%s: link %d dropped with margin %g, tie window %g", c.name, l, margin, window)
		}
	}
}

// TestMELCoversItsOwnSolution: the reported MEL is at least the MEL of
// the routing Bandwidth returns, also where a link no alternative
// moves (the only link out of a stub PoP) carries alternative 0's load.
func TestMELCoversItsOwnSolution(t *testing.T) {
	for _, c := range failureCases30(t) {
		res, _ := c.solve(t, false)
		if got := max(res.MELUp, res.MELDown); got > res.MEL*(1+1e-9) {
			t.Errorf("%s: MEL %v below its solution's %v (up %v, down %v)", c.name, res.MEL, got, res.MELUp, res.MELDown)
		}
	}
}
