package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// GridCDF is the constant-memory counterpart of CDF for figure
// rendering: it counts samples into the fixed x-grid a figure is
// plotted on, instead of retaining the samples. Because the figure
// axes are fixed per figure (DESIGN.md §8), the grid is known before
// the first sample arrives, and the rendered series is EXACTLY the
// one CDF.Series would produce from the retained samples — sample
// membership in a grid cell is decided by the same float comparisons,
// and the cumulative fraction is computed with the same operations in
// the same order. Counts are integers, so folds are order-independent
// and sharded runs fold into byte-identical tables.
type GridCDF struct {
	min, max float64
	gridN    int
	xs       []float64 // the grid, built with the Series formula
	counts   []int64   // len(xs)+1; counts[i] holds samples in (xs[i-1], xs[i]], last is > max
	n        int64
}

// NewGridCDF builds an empty grid over the same x positions
// CDF.Series(min, max, n) samples (n is clamped to 2, as there).
func NewGridCDF(min, max float64, n int) *GridCDF {
	if n < 2 {
		n = 2
	}
	g := &GridCDF{min: min, max: max, gridN: n}
	g.build()
	return g
}

// build derives the grid from (min, max, gridN) with the exact
// CDF.Series formula, so both sides compare samples against identical
// float64 values.
func (g *GridCDF) build() {
	g.xs = make([]float64, g.gridN)
	for i := 0; i < g.gridN; i++ {
		g.xs[i] = g.min + (g.max-g.min)*float64(i)/float64(g.gridN-1)
	}
	if g.counts == nil {
		g.counts = make([]int64, g.gridN+1)
	}
}

// Add folds one sample in. NaNs are dropped, mirroring NewCDF. Samples
// beyond the grid still count toward N (they depress every grid point's
// percentage, exactly as a retained sample above the axis would).
func (g *GridCDF) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	// The first grid point at or above x: x contributes to the
	// cumulative count from that point on. sorted-insertion semantics
	// match CDF.At's "samples <= x" exactly.
	g.counts[sort.SearchFloat64s(g.xs, x)]++
	g.n++
}

// Series renders the grid as CDF curve points. The arguments must
// name the grid this GridCDF was built over (they exist to satisfy
// the same SeriesSource shape as CDF.Series); any other axis panics,
// because silently rendering a different grid than was counted would
// produce plausible-looking nonsense.
func (g *GridCDF) Series(min, max float64, n int) []Point {
	if n < 2 {
		n = 2
	}
	if min != g.min || max != g.max || n != g.gridN {
		panic(fmt.Sprintf("stats: GridCDF over [%v,%v]x%d asked to render [%v,%v]x%d",
			g.min, g.max, g.gridN, min, max, n))
	}
	out := make([]Point, g.gridN)
	var cum int64
	for i, x := range g.xs {
		cum += g.counts[i]
		pct := 0.0
		if g.n > 0 {
			// Same operation order as CDF.Series: 100 * (count/total).
			pct = 100 * (float64(cum) / float64(g.n))
		}
		out[i] = Point{X: x, Pct: pct}
	}
	return out
}

// gridJSON is the wire form of a GridCDF: axis + integer counts, the
// state a sharded fold ships to the aggregator.
type gridJSON struct {
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Grid   int     `json:"grid"`
	Counts []int64 `json:"counts"`
	N      int64   `json:"n"`
}

// MarshalJSON serializes the grid state for shard transport.
func (g *GridCDF) MarshalJSON() ([]byte, error) {
	return json.Marshal(gridJSON{Min: g.min, Max: g.max, Grid: g.gridN, Counts: g.counts, N: g.n})
}

// UnmarshalJSON restores a grid serialized by MarshalJSON.
func (g *GridCDF) UnmarshalJSON(data []byte) error {
	var j gridJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Grid < 2 {
		return fmt.Errorf("stats: GridCDF grid %d too small", j.Grid)
	}
	if len(j.Counts) != j.Grid+1 {
		return fmt.Errorf("stats: GridCDF counts length %d, want %d", len(j.Counts), j.Grid+1)
	}
	g.min, g.max, g.gridN, g.n = j.Min, j.Max, j.Grid, j.N
	g.counts = j.Counts
	g.xs = nil
	g.build()
	return nil
}
