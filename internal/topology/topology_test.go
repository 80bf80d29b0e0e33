package topology

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geo"
)

// testISP builds a small valid ISP: a 4-PoP ring plus one chord.
func testISP(name string) *ISP {
	return &ISP{
		Name: name,
		ASN:  100,
		PoPs: []PoP{
			{ID: 0, City: "seattle", Loc: geo.Point{Lat: 47.6, Lon: -122.3}, Population: 4e6},
			{ID: 1, City: "denver", Loc: geo.Point{Lat: 39.7, Lon: -105.0}, Population: 3e6},
			{ID: 2, City: "chicago", Loc: geo.Point{Lat: 41.9, Lon: -87.6}, Population: 9e6},
			{ID: 3, City: "new york", Loc: geo.Point{Lat: 40.7, Lon: -74.0}, Population: 19e6},
		},
		Links: []Link{
			{A: 0, B: 1, Weight: 1641, LengthKm: 1641},
			{A: 1, B: 2, Weight: 1478, LengthKm: 1478},
			{A: 2, B: 3, Weight: 1145, LengthKm: 1145},
			{A: 0, B: 3, Weight: 3870, LengthKm: 3870},
			{A: 0, B: 2, Weight: 2790, LengthKm: 2790},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := testISP("a").Validate(); err != nil {
		t.Fatalf("valid ISP rejected: %v", err)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ISP)
	}{
		{"empty name", func(n *ISP) { n.Name = "" }},
		{"no pops", func(n *ISP) { n.PoPs = nil; n.Links = nil }},
		{"bad pop id", func(n *ISP) { n.PoPs[1].ID = 7 }},
		{"empty city", func(n *ISP) { n.PoPs[0].City = "" }},
		{"duplicate city", func(n *ISP) { n.PoPs[1].City = "seattle" }},
		{"invalid location", func(n *ISP) { n.PoPs[2].Loc = geo.Point{Lat: 99, Lon: 0} }},
		{"negative population", func(n *ISP) { n.PoPs[0].Population = -1 }},
		{"link out of range", func(n *ISP) { n.Links[0].B = 9 }},
		{"self loop", func(n *ISP) { n.Links[0] = Link{A: 1, B: 1, Weight: 1} }},
		{"non-canonical link", func(n *ISP) { n.Links[0] = Link{A: 2, B: 0, Weight: 1} }},
		{"duplicate link", func(n *ISP) { n.Links[1] = n.Links[0] }},
		{"negative weight", func(n *ISP) { n.Links[0].Weight = -2 }},
		{"NaN population", func(n *ISP) { n.PoPs[0].Population = math.NaN() }},
		{"infinite population", func(n *ISP) { n.PoPs[0].Population = math.Inf(1) }},
		{"NaN weight", func(n *ISP) { n.Links[0].Weight = math.NaN() }},
		{"infinite length", func(n *ISP) { n.Links[0].LengthKm = math.Inf(1) }},
		{"disconnected", func(n *ISP) { n.Links = n.Links[:2] }},
	}
	for _, c := range cases {
		n := testISP("x")
		c.mutate(n)
		if err := n.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken ISP", c.name)
		}
	}
}

func TestConnected(t *testing.T) {
	n := testISP("a")
	if !n.Connected() {
		t.Error("ring+chords should be connected")
	}
	// Drop all links touching PoP 3.
	n.Links = []Link{{A: 0, B: 1, Weight: 1}, {A: 1, B: 2, Weight: 1}}
	if n.Connected() {
		t.Error("PoP 3 is isolated; should not be connected")
	}
	single := &ISP{Name: "s", PoPs: []PoP{{ID: 0, City: "x", Loc: geo.Point{}}}}
	if !single.Connected() {
		t.Error("single-PoP ISP is trivially connected")
	}
}

func TestIsMesh(t *testing.T) {
	n := testISP("a")
	n.Links = n.Links[:4] // ring: 4 links on 4 PoPs, density 4/6 < 0.8
	if n.IsMesh() {
		t.Error("ring is not above the mesh threshold")
	}
	n.Links = append(n.Links, Link{A: 0, B: 2, Weight: 1}, Link{A: 1, B: 3, Weight: 1}) // complete K4
	if !n.IsMesh() {
		t.Error("complete graph should be a mesh")
	}
	tiny := &ISP{Name: "t", PoPs: []PoP{{ID: 0, City: "a"}, {ID: 1, City: "b"}},
		Links: []Link{{A: 0, B: 1, Weight: 1}}}
	if tiny.IsMesh() {
		t.Error("2-PoP ISPs are never meshes")
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	n := testISP("a")
	adj := n.Adjacency()
	degSum := 0
	for _, edges := range adj {
		degSum += len(edges)
	}
	if degSum != 2*len(n.Links) {
		t.Errorf("sum of degrees = %d, want %d", degSum, 2*len(n.Links))
	}
	// Every edge u->v must have a reverse v->u over the same link.
	for u, edges := range adj {
		for _, e := range edges {
			found := false
			for _, back := range adj[e.To] {
				if back.To == u && back.Link == e.Link {
					found = true
				}
			}
			if !found {
				t.Errorf("edge %d->%d (link %d) has no reverse", u, e.To, e.Link)
			}
		}
	}
}

func TestNewPairFindsSharedCities(t *testing.T) {
	a := testISP("a")
	b := &ISP{
		Name: "b", ASN: 200,
		PoPs: []PoP{
			{ID: 0, City: "chicago", Loc: geo.Point{Lat: 41.9, Lon: -87.6}, Population: 9e6},
			{ID: 1, City: "new york", Loc: geo.Point{Lat: 40.7, Lon: -74.0}, Population: 19e6},
			{ID: 2, City: "miami", Loc: geo.Point{Lat: 25.8, Lon: -80.2}, Population: 6e6},
		},
		Links: []Link{{A: 0, B: 1, Weight: 1145, LengthKm: 1145}, {A: 1, B: 2, Weight: 1750, LengthKm: 1750}},
	}
	p := NewPair(a, b)
	if p.NumInterconnections() != 2 {
		t.Fatalf("NumInterconnections = %d, want 2", p.NumInterconnections())
	}
	// Sorted by city: chicago before new york.
	if p.Interconnections[0].City != "chicago" || p.Interconnections[1].City != "new york" {
		t.Errorf("interconnections = %+v", p.Interconnections)
	}
	if p.Interconnections[0].APoP != 2 || p.Interconnections[0].BPoP != 0 {
		t.Errorf("chicago interconnection endpoints wrong: %+v", p.Interconnections[0])
	}
	if p.Interconnections[0].LengthKm != 0 {
		t.Errorf("same-city interconnection should have zero length, got %f", p.Interconnections[0].LengthKm)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPairReversed(t *testing.T) {
	a, b := testISP("a"), testISP("b")
	p := NewPair(a, b)
	r := p.Reversed()
	if r.A != b || r.B != a {
		t.Error("Reversed did not swap ISPs")
	}
	for i := range p.Interconnections {
		if r.Interconnections[i].APoP != p.Interconnections[i].BPoP ||
			r.Interconnections[i].BPoP != p.Interconnections[i].APoP {
			t.Errorf("interconnection %d not swapped", i)
		}
	}
}

func TestWithoutInterconnection(t *testing.T) {
	p := NewPair(testISP("a"), testISP("b")) // all 4 cities shared
	if p.NumInterconnections() != 4 {
		t.Fatalf("setup: want 4 interconnections, got %d", p.NumInterconnections())
	}
	q := p.WithoutInterconnection(1)
	if q.NumInterconnections() != 3 {
		t.Fatalf("want 3 after removal, got %d", q.NumInterconnections())
	}
	if q.Interconnections[1].City == p.Interconnections[1].City {
		t.Error("removed interconnection still present")
	}
	if p.NumInterconnections() != 4 {
		t.Error("original pair mutated")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range removal")
		}
	}()
	p.WithoutInterconnection(9)
}

func TestAllPairs(t *testing.T) {
	a, b := testISP("a"), testISP("b")
	c := &ISP{Name: "c", PoPs: []PoP{{ID: 0, City: "tokyo", Loc: geo.Point{Lat: 35.7, Lon: 139.7}}}}
	pairs := AllPairs([]*ISP{a, b, c}, 2, false)
	if len(pairs) != 1 {
		t.Fatalf("AllPairs = %d pairs, want 1", len(pairs))
	}
	if pairs[0].A.Name != "a" || pairs[0].B.Name != "b" {
		t.Errorf("unexpected pair %v", pairs[0])
	}
	// With mesh exclusion: make a a mesh.
	a.Links = append(a.Links, Link{A: 1, B: 3, Weight: 1})
	if got := AllPairs([]*ISP{a, b, c}, 2, true); len(got) != 0 {
		t.Errorf("mesh exclusion failed, got %d pairs", len(got))
	}
}

func TestCodecRoundtrip(t *testing.T) {
	isps := []*ISP{testISP("backbone one"), testISP("backbone two")}
	var sb strings.Builder
	if err := Write(&sb, isps); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Read returned %d ISPs, want 2", len(got))
	}
	for i := range isps {
		if got[i].Name != isps[i].Name || got[i].ASN != isps[i].ASN {
			t.Errorf("ISP %d header mismatch: %s/%d", i, got[i].Name, got[i].ASN)
		}
		if len(got[i].PoPs) != len(isps[i].PoPs) || len(got[i].Links) != len(isps[i].Links) {
			t.Fatalf("ISP %d size mismatch", i)
		}
		for j := range isps[i].PoPs {
			w, g := isps[i].PoPs[j], got[i].PoPs[j]
			if w.City != g.City || w.ID != g.ID || w.Population != g.Population {
				t.Errorf("ISP %d pop %d mismatch: %+v vs %+v", i, j, w, g)
			}
		}
		for j := range isps[i].Links {
			if isps[i].Links[j] != got[i].Links[j] {
				t.Errorf("ISP %d link %d mismatch", i, j)
			}
		}
	}
}

func TestCodecComments(t *testing.T) {
	input := `
# a comment
isp test 1
pop 0 city_a 10.0 20.0 100
end
`
	isps, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(isps) != 1 || isps[0].PoPs[0].City != "city a" {
		t.Errorf("parse result wrong: %+v", isps)
	}
}

func TestCodecErrors(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"pop outside block", "pop 0 x 0 0 0\n"},
		{"link outside block", "link 0 1 1 1\n"},
		{"end outside block", "end\n"},
		{"nested isp", "isp a 1\nisp b 2\n"},
		{"bad asn", "isp a xyz\n"},
		{"bad pop arity", "isp a 1\npop 0 x 0\nend\n"},
		{"bad link number", "isp a 1\npop 0 x 0 0 0\nlink 0 q 1 1\nend\n"},
		{"unknown directive", "frob 1 2\n"},
		{"unterminated", "isp a 1\npop 0 x 0 0 0\n"},
		{"invalid topology", "isp a 1\npop 0 x 0 0 0\npop 1 y 0 1 0\nend\n"}, // disconnected
		{"unknown pop field", "isp a 1\npop z x 0 0 0\nend\n"},
		{"non-finite values", "isp x 1\npop 0 a 1 1 NaN\npop 1 b 2 2 5\nlink 0 1 NaN Inf\nend\n"},
		{"infinite weight", "isp x 1\npop 0 a 1 1 1\npop 1 b 2 2 5\nlink 0 1 +Inf 1\nend\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.input)); err == nil {
			t.Errorf("%s: Read accepted bad input", c.name)
		}
	}
}
