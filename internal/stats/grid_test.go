package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// The GridCDF contract: for a fixed figure axis, folding samples online
// produces the exact series a retained-sample CDF renders — same float
// comparisons, same arithmetic, bit-identical points.
func TestGridCDFSeriesMatchesCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const min, max, n = -20, 40, 13
	samples := make([]float64, 0, 1203)
	g := NewGridCDF(min, max, n)
	for i := 0; i < 1200; i++ {
		x := rng.NormFloat64()*25 + 5 // spills past both axis ends
		samples = append(samples, x)
		g.Add(x)
	}
	// Exact grid-point values and a NaN must behave identically too.
	for _, x := range []float64{min, max, -15, math.NaN()} {
		samples = append(samples, x)
		g.Add(x)
	}
	c := NewCDF(samples)
	if g.n != int64(c.N()) {
		t.Fatalf("N = %d, want %d", g.n, c.N())
	}
	want := c.Series(min, max, n)
	got := g.Series(min, max, n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Integer counts make the fold order-independent: samples folded shard
// by shard, in any shard order, land in the same grid as the whole run,
// hence byte-identical tables (nexitplot folds shards this way).
func TestGridCDFMergeShardParity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const min, max, n = 0, 15, 16
	whole := NewGridCDF(min, max, n)
	var shardA, shardB []float64
	for i := 0; i < 999; i++ {
		x := rng.Float64() * 18
		whole.Add(x)
		if i%2 == 0 {
			shardA = append(shardA, x)
		} else {
			shardB = append(shardB, x)
		}
	}
	// Fold in the "wrong" shard order on purpose.
	merged := NewGridCDF(min, max, n)
	for _, x := range append(shardB, shardA...) {
		merged.Add(x)
	}
	wholeTable := FormatSeries("x", min, max, n, map[string]*GridCDF{"g": whole}, []string{"g"})
	mergedTable := FormatSeries("x", min, max, n, map[string]*GridCDF{"g": merged}, []string{"g"})
	if wholeTable != mergedTable {
		t.Fatalf("sharded table differs from whole-run table:\n%s\nvs\n%s", mergedTable, wholeTable)
	}
}

func TestGridCDFJSONRoundTrip(t *testing.T) {
	g := NewGridCDF(0, 6, 7)
	for _, x := range []float64{-1, 0, 0.5, 3, 6, 9} {
		g.Add(x)
	}
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back GridCDF
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.n != g.n {
		t.Fatalf("round-trip N = %d, want %d", back.n, g.n)
	}
	want, got := g.Series(0, 6, 7), back.Series(0, 6, 7)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-trip point %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// A second marshal of the restored grid is byte-identical: the wire
	// form is canonical.
	raw2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatalf("wire form not canonical:\n%s\nvs\n%s", raw, raw2)
	}
}

func TestGridCDFSeriesWrongAxisPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rendering a different axis did not panic")
		}
	}()
	NewGridCDF(0, 15, 16).Series(0, 10, 16)
}

func TestGridCDFEmpty(t *testing.T) {
	g := NewGridCDF(0, 1, 3)
	for _, p := range g.Series(0, 1, 3) {
		if p.Pct != 0 {
			t.Fatalf("empty grid rendered %+v", p)
		}
	}
}
