package routing

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/topology"
)

func sameLinks(t *testing.T, ctx string, got []int32, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", ctx, got, want)
	}
	for i := range want {
		if int(got[i]) != want[i] {
			t.Fatalf("%s: got %v, want %v", ctx, got, want)
		}
	}
}

// TestPathIndexMatchesPathLinks is the property test pinning the CSR
// index to fresh parent-chain extraction: over randomized topologies and
// endpoint sets, every To/From row must equal Table.PathLinks for the
// same (src, dst, interconnection) triple.
func TestPathIndexMatchesPathLinks(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		isp := randomConnectedISP(rng, 4+rng.Intn(20), rng.Intn(25))
		tab := New(isp)
		n := len(isp.PoPs)
		na := 1 + rng.Intn(4)
		endpoints := make([]int, na)
		for k := range endpoints {
			endpoints[k] = rng.Intn(n)
		}
		ix := tab.PathIndexFor(endpoints)
		if rows := len(ix.off) - 1; rows != na*2*n {
			t.Fatalf("trial %d: %d rows, want %d", trial, rows, na*2*n)
		}
		for probe := 0; probe < 200; probe++ {
			k := rng.Intn(na)
			src, dst := rng.Intn(n), rng.Intn(n)
			sameLinks(t, "To", ix.To(k, src), tab.PathLinks(src, endpoints[k]))
			sameLinks(t, "From", ix.From(k, dst), tab.PathLinks(endpoints[k], dst))
		}
		// Exhaustive sweep on top of the random probes: every row.
		for k := range endpoints {
			for p := 0; p < n; p++ {
				sameLinks(t, "To", ix.To(k, p), tab.PathLinks(p, endpoints[k]))
				sameLinks(t, "From", ix.From(k, p), tab.PathLinks(endpoints[k], p))
			}
		}
	}
}

func TestPathIndexUnreachableRowsEmpty(t *testing.T) {
	isp := &topology.ISP{
		Name: "disc", ASN: 6,
		PoPs: []topology.PoP{
			{ID: 0, City: "a"}, {ID: 1, City: "b"}, {ID: 2, City: "c"},
		},
		Links: []topology.Link{{A: 0, B: 1, Weight: 1, LengthKm: 1}},
	}
	tab := New(isp)
	ix := tab.PathIndexFor([]int{0})
	if len(ix.To(0, 2)) != 0 || len(ix.From(0, 2)) != 0 {
		t.Errorf("rows touching unreachable PoP 2 should be empty: To=%v From=%v", ix.To(0, 2), ix.From(0, 2))
	}
	if len(ix.To(0, 0)) != 0 {
		t.Errorf("src == endpoint row should be empty, got %v", ix.To(0, 0))
	}
	sameLinks(t, "To(0,1)", ix.To(0, 1), tab.PathLinks(1, 0))
}

// TestPathIndexForConcurrent exercises the memo under -race: many
// goroutines resolving the same and different endpoint sets must agree
// on one index per set.
func TestPathIndexForConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	isp := randomConnectedISP(rng, 24, 30)
	tab := New(isp)
	sets := [][]int{{0, 3, 7}, {0, 3, 7}, {1, 2}, {5}, {0, 3, 7}, {1, 2}}
	got := make([]*PathIndex, len(sets))
	var wg sync.WaitGroup
	for i, eps := range sets {
		wg.Add(1)
		go func(i int, eps []int) {
			defer wg.Done()
			got[i] = tab.PathIndexFor(eps)
		}(i, eps)
	}
	wg.Wait()
	// Same endpoint set resolves to the same memoized index.
	again := tab.PathIndexFor([]int{0, 3, 7})
	for i, eps := range sets {
		if len(eps) == 3 && got[i] != again {
			t.Fatalf("set %d: expected memoized index pointer", i)
		}
		for k := range eps {
			for p := range isp.PoPs {
				sameLinks(t, "concurrent To", got[i].To(k, p), tab.PathLinks(p, eps[k]))
			}
		}
	}
}
