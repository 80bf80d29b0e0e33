package simplex_test

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/capacity"
	"repro/internal/gen"
	"repro/internal/optimal"
	"repro/internal/pairsim"
	"repro/internal/simplex"
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

// columns is the number of LP columns the case's flows make.
func (c *lpCase) columns() int { return len(c.flows) * (c.s.NumAlternatives() - 1) }

// largestFailureCases30 returns the n failure cases of the 30-ISP
// default dataset with the most LP columns, built as the failure
// experiments build them: capacities from the pre-failure early-exit
// loads of gravity traffic, the failed interconnection's flows rerouted,
// everything else fixed load.
func largestFailureCases30(t *testing.T, n int) []*lpCase {
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
		pre := make(pairsim.Assignment, len(w.Flows))
		for _, f := range w.Flows {
			pre[f.ID] = s.EarlyExit(f)
		}
		loadUp, loadDown := s.Loads(w.Flows, pre)
		capUp, capDown := capacity.Assign(loadUp, capacity.Options{}), capacity.Assign(loadDown, capacity.Options{})
		for k := 0; k < pair.NumInterconnections(); k++ {
			c := &lpCase{
				name:      pair.A.Name + "-" + pair.B.Name,
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
			cases = append(cases, c)
		}
	}
	slices.SortStableFunc(cases, func(a, b *lpCase) int { return b.columns() - a.columns() })
	return cases[:n]
}

// TestRealLPsMatchAcrossKernels solves the 30-ISP dataset's largest
// failure-case LPs, tableaux of about 500 × 5 000, once per kernel this
// CPU can run, and requires every output bit of optimal.Bandwidth to be
// the same: the MELs and every flow's fractions, which are the
// solution's columns. Under -short, the largest LP only.
func TestRealLPsMatchAcrossKernels(t *testing.T) {
	n := 3
	if testing.Short() {
		n = 1
	}
	kernels := simplex.KernelNames()
	t.Logf("kernels: %v", kernels)
	for _, c := range largestFailureCases30(t, n) {
		var want *optimal.BandwidthResult
		for _, k := range kernels {
			restore := simplex.UseKernel(k)
			got, err := optimal.Bandwidth(c.s, c.flows, c.fixedUp, c.fixedDown, c.capUp, c.capDown)
			restore()
			if err != nil {
				t.Fatalf("%s, %d columns, kernel %s: %v", c.name, c.columns(), k, err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(bits(got), bits(want)) {
				t.Fatalf("%s, %d columns: kernel %s gives MEL %v, kernel %s %v, or fractions differ",
					c.name, c.columns(), k, got.MEL, kernels[0], want.MEL)
			}
		}
		t.Logf("%s: %d columns, MEL %v on every kernel", c.name, c.columns(), want.MEL)
	}
}

// bits is every float of r as its bit pattern.
func bits(r *optimal.BandwidthResult) []uint64 {
	out := []uint64{math.Float64bits(r.MEL), math.Float64bits(r.MELUp), math.Float64bits(r.MELDown)}
	for _, fr := range r.Fractions {
		for _, v := range fr {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}
