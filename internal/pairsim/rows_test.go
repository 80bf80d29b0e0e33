package pairsim

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestDistanceRowsMatchLengthKm holds the distance rows to the routing
// tables they are read from: for every PoP and alternative, each row
// entry and each UpDistKm/DownDistKm read must equal LengthKm bit for
// bit, for systems built by New, by Reverse and over a pair that lost
// an interconnection (the failure cases of §5.2).
func TestDistanceRowsMatchLengthKm(t *testing.T) {
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 12
	isps, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewTableCache()
	pairs := topology.AllPairs(isps, 1, false)
	if len(pairs) < 10 {
		t.Fatalf("%d pairs: the dataset no longer exercises the rows", len(pairs))
	}
	checked := 0
	for _, pair := range pairs {
		s := New(pair, cache)
		systems := map[string]*System{"New": s, "Reverse": s.Reverse()}
		if pair.NumInterconnections() > 1 {
			k := pair.NumInterconnections() / 2
			systems["WithoutInterconnection"] = New(pair.WithoutInterconnection(k), cache)
		}
		for name, sys := range systems {
			checkRows(t, pair.String()+" "+name, sys)
			checked++
		}
	}
	t.Logf("%d systems over %d pairs", checked, len(pairs))
}

// checkRows compares every row entry of s with LengthKm.
func checkRows(t *testing.T, label string, s *System) {
	t.Helper()
	same := func(what string, pop, k int, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: %s at PoP %d, alternative %d = %v, want LengthKm %v", label, what, pop, k, got, want)
		}
	}
	for p := range s.Up.ISP.PoPs {
		up := traffic.Flow{Src: p}
		for k, ix := range s.Pair.Interconnections {
			same("UpRows().To", p, k, s.UpRows().To(p)[k], s.Up.LengthKm(p, ix.APoP))
			same("UpRows().From", p, k, s.UpRows().From(p)[k], s.Up.LengthKm(ix.APoP, p))
			same("UpDistKm", p, k, s.UpDistKm(up, k), s.Up.LengthKm(p, ix.APoP))
		}
	}
	for p := range s.Down.ISP.PoPs {
		down := traffic.Flow{Dst: p}
		for k, ix := range s.Pair.Interconnections {
			same("DownRows().To", p, k, s.DownRows().To(p)[k], s.Down.LengthKm(p, ix.BPoP))
			same("DownRows().From", p, k, s.DownRows().From(p)[k], s.Down.LengthKm(ix.BPoP, p))
			same("DownDistKm", p, k, s.DownDistKm(down, k), s.Down.LengthKm(ix.BPoP, p))
		}
	}
}
