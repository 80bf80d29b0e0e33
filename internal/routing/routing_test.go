package routing

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/topology"
)

// lineISP builds a path topology 0-1-2-...-n-1 with unit weights.
func lineISP(n int) *topology.ISP {
	isp := &topology.ISP{Name: "line", ASN: 1}
	for i := 0; i < n; i++ {
		isp.PoPs = append(isp.PoPs, topology.PoP{ID: i, City: city(i), Loc: geo.Point{Lat: float64(i)}})
	}
	for i := 0; i+1 < n; i++ {
		isp.Links = append(isp.Links, topology.Link{A: i, B: i + 1, Weight: 1, LengthKm: 100})
	}
	return isp
}

// path returns the PoP sequence of the shortest path from src to dst,
// inclusive of both endpoints, or nil if dst is unreachable: the
// parent-chain walk PathLinks and PathIndex are checked against.
func path(t *Table, src, dst int) []int {
	if !t.Reachable(src, dst) {
		return nil
	}
	var rev []int
	for v := dst; v != src; v = int(t.parent[src*t.n+v]) {
		rev = append(rev, v)
	}
	out := []int{src}
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

func city(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i/26)) }

func TestLineDistances(t *testing.T) {
	tab := New(lineISP(5))
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := math.Abs(float64(i - j))
			if got := tab.Dist(i, j); got != want {
				t.Errorf("Dist(%d,%d) = %v, want %v", i, j, got, want)
			}
			if got := tab.LengthKm(i, j); got != want*100 {
				t.Errorf("LengthKm(%d,%d) = %v, want %v", i, j, got, want*100)
			}
		}
	}
}

func TestPathEndpoints(t *testing.T) {
	tab := New(lineISP(6))
	p := path(tab, 1, 4)
	want := []int{1, 2, 3, 4}
	if len(p) != len(want) {
		t.Fatalf("Path(1,4) = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("Path(1,4) = %v, want %v", p, want)
		}
	}
	if got := path(tab, 3, 3); len(got) != 1 || got[0] != 3 {
		t.Errorf("Path(3,3) = %v, want [3]", got)
	}
	links := tab.PathLinks(1, 4)
	if len(links) != 3 {
		t.Fatalf("PathLinks(1,4) = %v", links)
	}
	if tab.PathLinks(2, 2) != nil {
		t.Error("PathLinks(x,x) should be nil")
	}
}

// weightedISP builds a diamond where the weighted shortest path differs
// from the hop-count shortest path.
func weightedISP() *topology.ISP {
	isp := &topology.ISP{Name: "diamond", ASN: 2}
	for i := 0; i < 4; i++ {
		isp.PoPs = append(isp.PoPs, topology.PoP{ID: i, City: city(i), Loc: geo.Point{Lat: float64(i)}})
	}
	isp.Links = []topology.Link{
		{A: 0, B: 1, Weight: 1, LengthKm: 10}, // 0
		{A: 1, B: 3, Weight: 1, LengthKm: 10}, // 1
		{A: 0, B: 3, Weight: 5, LengthKm: 5},  // 2: direct but heavy
		{A: 0, B: 2, Weight: 1, LengthKm: 10}, // 3
		{A: 2, B: 3, Weight: 2, LengthKm: 10}, // 4
	}
	return isp
}

func TestWeightedShortestPath(t *testing.T) {
	tab := New(weightedISP())
	if got := tab.Dist(0, 3); got != 2 {
		t.Errorf("Dist(0,3) = %v, want 2 (via PoP 1)", got)
	}
	// LengthKm follows the weight-shortest path (20km), not the direct 5km link.
	if got := tab.LengthKm(0, 3); got != 20 {
		t.Errorf("LengthKm(0,3) = %v, want 20", got)
	}
	p := path(tab, 0, 3)
	if len(p) != 3 || p[1] != 1 {
		t.Errorf("Path(0,3) = %v, want [0 1 3]", p)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	// Two equal-cost paths 0->1->3 and 0->2->3; the tie-break should
	// prefer previous hop 1 (smaller ID) and be stable across runs.
	isp := &topology.ISP{Name: "tie", ASN: 3}
	for i := 0; i < 4; i++ {
		isp.PoPs = append(isp.PoPs, topology.PoP{ID: i, City: city(i), Loc: geo.Point{Lat: float64(i)}})
	}
	isp.Links = []topology.Link{
		{A: 0, B: 1, Weight: 1, LengthKm: 1},
		{A: 0, B: 2, Weight: 1, LengthKm: 1},
		{A: 1, B: 3, Weight: 1, LengthKm: 1},
		{A: 2, B: 3, Weight: 1, LengthKm: 1},
	}
	for run := 0; run < 5; run++ {
		tab := New(isp)
		p := path(tab, 0, 3)
		if len(p) != 3 || p[1] != 1 {
			t.Fatalf("run %d: Path(0,3) = %v, want [0 1 3]", run, p)
		}
	}
}

// randomConnectedISP builds a random connected graph: a random spanning
// tree plus extra random edges, with random positive weights.
func randomConnectedISP(rng *rand.Rand, n, extra int) *topology.ISP {
	isp := &topology.ISP{Name: "rand", ASN: 4}
	for i := 0; i < n; i++ {
		isp.PoPs = append(isp.PoPs, topology.PoP{ID: i, City: city(i), Loc: geo.Point{Lat: float64(i % 90)}})
	}
	have := map[[2]int]bool{}
	addLink := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		if a == b || have[[2]int{a, b}] {
			return
		}
		have[[2]int{a, b}] = true
		w := 1 + rng.Float64()*99
		isp.Links = append(isp.Links, topology.Link{A: a, B: b, Weight: w, LengthKm: w})
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		addLink(perm[i], perm[rng.Intn(i)])
	}
	for e := 0; e < extra; e++ {
		addLink(rng.Intn(n), rng.Intn(n))
	}
	return isp
}

// floydWarshall is an independent all-pairs implementation used as the
// oracle for the property test.
func floydWarshall(isp *topology.ISP) [][]float64 {
	n := len(isp.PoPs)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for _, l := range isp.Links {
		if l.Weight < d[l.A][l.B] {
			d[l.A][l.B] = l.Weight
			d[l.B][l.A] = l.Weight
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		isp := randomConnectedISP(rng, 5+rng.Intn(20), rng.Intn(30))
		tab := New(isp)
		want := floydWarshall(isp)
		for i := range isp.PoPs {
			for j := range isp.PoPs {
				if math.Abs(tab.Dist(i, j)-want[i][j]) > 1e-9 {
					t.Fatalf("trial %d: Dist(%d,%d) = %v, want %v", trial, i, j, tab.Dist(i, j), want[i][j])
				}
			}
		}
	}
}

func TestPathConsistency(t *testing.T) {
	// Property: the weight along Path(i,j) equals Dist(i,j), the path is
	// a valid walk, and LengthKm equals the sum of link lengths.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		isp := randomConnectedISP(rng, 4+rng.Intn(15), rng.Intn(20))
		tab := New(isp)
		for i := range isp.PoPs {
			for j := range isp.PoPs {
				links := tab.PathLinks(i, j)
				var w, km float64
				at := i
				for _, li := range links {
					l := isp.Links[li]
					switch at {
					case l.A:
						at = l.B
					case l.B:
						at = l.A
					default:
						t.Fatalf("path link %d does not continue from PoP %d", li, at)
					}
					w += l.Weight
					km += l.LengthKm
				}
				if at != j {
					t.Fatalf("path from %d ends at %d, want %d", i, at, j)
				}
				if math.Abs(w-tab.Dist(i, j)) > 1e-9 {
					t.Fatalf("path weight %v != Dist %v", w, tab.Dist(i, j))
				}
				if math.Abs(km-tab.LengthKm(i, j)) > 1e-9 {
					t.Fatalf("path length %v != LengthKm %v", km, tab.LengthKm(i, j))
				}
			}
		}
	}
}

func TestAddLoad(t *testing.T) {
	isp := lineISP(4)
	tab := New(isp)
	load := make([]float64, len(isp.Links))
	tab.AddLoad(load, 0, 3, 2.5)
	tab.AddLoad(load, 1, 2, 1.0)
	want := []float64{2.5, 3.5, 2.5}
	for i := range want {
		if load[i] != want[i] {
			t.Errorf("load[%d] = %v, want %v", i, load[i], want[i])
		}
	}
}

func TestAddLoadPanicsOnBadVector(t *testing.T) {
	tab := New(lineISP(3))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong-size load vector")
		}
	}()
	tab.AddLoad(make([]float64, 99), 0, 1, 1)
}

func TestUnreachable(t *testing.T) {
	// Build a technically invalid (disconnected) topology directly to
	// exercise the unreachable code paths; Table does not validate.
	isp := &topology.ISP{
		Name: "disc", ASN: 5,
		PoPs: []topology.PoP{
			{ID: 0, City: "a"}, {ID: 1, City: "b"}, {ID: 2, City: "c"},
		},
		Links: []topology.Link{{A: 0, B: 1, Weight: 1, LengthKm: 1}},
	}
	tab := New(isp)
	if tab.Reachable(0, 2) {
		t.Error("PoP 2 should be unreachable")
	}
	if path(tab, 0, 2) != nil || tab.PathLinks(0, 2) != nil {
		t.Error("paths to unreachable destinations should be nil")
	}
	if !math.IsInf(tab.Dist(0, 2), 1) {
		t.Error("Dist to unreachable should be +Inf")
	}
}
