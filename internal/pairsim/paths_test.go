package pairsim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// addFlowLoadParentChain is AddFlowLoad as it was before it read path
// index rows: each half walks its table's parent chain from the path's
// destination back to its source.
func addFlowLoadParentChain(s *System, loadUp, loadDown []float64, f traffic.Flow, k int) {
	ix := s.Pair.Interconnections[k]
	s.Up.AddLoad(loadUp, f.Src, ix.APoP, f.Size)
	s.Down.AddLoad(loadDown, ix.BPoP, f.Dst, f.Size)
}

// failureSystems returns, for every failure case of the 18-ISP default
// dataset (each interconnection of each pair with three or more, taken
// out), the surviving system and its reverse; under -short, a seeded
// sample of 12 cases.
func failureSystems(t *testing.T) map[string]*System {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 18
	isps, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewTableCache()
	var names []string
	cases := map[string]*System{}
	for _, pair := range topology.AllPairs(isps, 3, true) {
		for k := 0; k < pair.NumInterconnections(); k++ {
			name := fmt.Sprintf("%s failing %d", pair, k)
			names = append(names, name)
			cases[name] = New(pair.WithoutInterconnection(k), cache)
		}
	}
	if len(names) < 40 {
		t.Fatalf("%d failure cases, want the 18-ISP dataset's bandwidth cases", len(names))
	}
	if testing.Short() {
		rng := rand.New(rand.NewSource(3))
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		for _, name := range names[12:] {
			delete(cases, name)
		}
	}
	for name, s := range cases {
		cases[name+" reversed"] = s.Reverse()
	}
	return cases
}

// TestAddFlowLoadMatchesParentChain holds AddFlowLoad's index rows to
// the parent-chain walk bit for bit: over every failure case's system
// and its reverse, every gravity flow is added on every alternative, and
// both ISPs' load vectors must come out identical. A flow adds its size
// once to each link of a path, so the walk's direction changes no sum.
func TestAddFlowLoadMatchesParentChain(t *testing.T) {
	paths := 0
	for name, s := range failureSystems(t) {
		w := traffic.New(s.Pair.A, s.Pair.B, traffic.Gravity, nil)
		nUp, nDown := len(s.Up.ISP.Links), len(s.Down.ISP.Links)
		gotUp, gotDown := make([]float64, nUp), make([]float64, nDown)
		wantUp, wantDown := make([]float64, nUp), make([]float64, nDown)
		for _, f := range w.Flows {
			for k := 0; k < s.NumAlternatives(); k++ {
				s.AddFlowLoad(gotUp, gotDown, f, k)
				addFlowLoadParentChain(s, wantUp, wantDown, f, k)
				paths++
			}
		}
		for _, side := range []struct {
			name      string
			got, want []float64
		}{{"upstream", gotUp, wantUp}, {"downstream", gotDown, wantDown}} {
			for l := range side.want {
				if math.Float64bits(side.got[l]) != math.Float64bits(side.want[l]) {
					t.Fatalf("%s: %s link %d: AddFlowLoad %v, parent chain %v",
						name, side.name, l, side.got[l], side.want[l])
				}
			}
		}
	}
	t.Logf("%d flow paths match", paths)
}

// TestAddFlowLoadPanicsOnBadVector: a load vector whose length is not
// its ISP's link count is refused with a labelled panic, before any
// link is touched.
func TestAddFlowLoadPanicsOnBadVector(t *testing.T) {
	s := New(figure1Pair(), nil)
	f := traffic.Flow{Src: 0, Dst: 2, Size: 1}
	nUp, nDown := len(s.Up.ISP.Links), len(s.Down.ISP.Links)
	for _, c := range []struct {
		name     string
		up, down int
	}{
		{"short upstream", nUp - 1, nDown},
		{"long upstream", nUp + 1, nDown},
		{"short downstream", nUp, nDown - 1},
		{"nil both", 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			up, down := make([]float64, c.up), make([]float64, c.down)
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "pairsim: load vectors have") {
					t.Fatalf("recovered %q, want the labelled length panic", msg)
				}
				for _, v := range append(up, down...) {
					if v != 0 {
						t.Fatalf("a link was loaded before the panic: %v %v", up, down)
					}
				}
			}()
			s.AddFlowLoad(up, down, f, 0)
		})
	}
}

// TestPathsConcurrent: goroutines racing on a fresh System's first
// Paths call, and on AddFlowLoad into their own vectors, all read the
// one pair of indexes, the tables' memoized ones.
func TestPathsConcurrent(t *testing.T) {
	pair := figure1Pair()
	cache := NewTableCache()
	s := New(pair, cache)
	f := traffic.Flow{Src: 0, Dst: 2, Size: 1}
	var wg sync.WaitGroup
	ups, downs := make([]*routing.PathIndex, 8), make([]*routing.PathIndex, 8)
	for g := range ups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loadUp, loadDown := make([]float64, len(pair.A.Links)), make([]float64, len(pair.B.Links))
			s.AddFlowLoad(loadUp, loadDown, f, g%s.NumAlternatives())
			ups[g], downs[g] = s.Paths()
		}()
	}
	wg.Wait()
	other := New(pair, cache)
	up, down := other.Paths()
	for g := range ups {
		if ups[g] != up || downs[g] != down {
			t.Fatalf("goroutine %d read indexes %p/%p, want the memoized %p/%p", g, ups[g], downs[g], up, down)
		}
	}
}
