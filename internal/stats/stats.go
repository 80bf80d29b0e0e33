// Package stats provides the small statistical toolkit the experiment
// harness uses to report results in the paper's format: cumulative
// distribution functions over ISP pairs / flows / failure cases, with
// quantiles and fixed-grid series matching the figures' axes.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over a sample set.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied; NaNs are dropped).
func NewCDF(samples []float64) *CDF {
	s := make([]float64, 0, len(samples))
	for _, x := range samples {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.sorted) }

// At returns the fraction of samples <= x, in [0, 1].
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (q in [0,1]) using nearest-rank. It
// panics on an empty CDF or out-of-range q.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		panic("stats: quantile of empty CDF")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of range", q))
	}
	i := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// Max returns the largest sample.
func (c *CDF) Max() float64 { return c.Quantile(1) }

// Median returns the 0.5 quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Mean returns the arithmetic mean.
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	var sum float64
	for _, x := range c.sorted {
		sum += x
	}
	return sum / float64(len(c.sorted))
}

// Point is one (x, cumulative-percent) sample of a rendered CDF curve.
type Point struct {
	X   float64
	Pct float64 // cumulative percentage of samples <= X, in [0, 100]
}

// Series samples the CDF at n evenly spaced x positions spanning
// [min, max], as plotted in the paper's figures.
func (c *CDF) Series(min, max float64, n int) []Point {
	if n < 2 {
		n = 2
	}
	out := make([]Point, n)
	for i := 0; i < n; i++ {
		x := min + (max-min)*float64(i)/float64(n-1)
		out[i] = Point{X: x, Pct: 100 * c.At(x)}
	}
	return out
}

// FormatSeries renders one or more named CDF curves sampled on a shared
// x-grid as an aligned text table — the textual equivalent of one paper
// figure panel. Like Series, it renders at least the two end points,
// min and max.
func FormatSeries(xLabel string, min, max float64, n int, curves map[string]*CDF, order []string) string {
	if n < 2 {
		n = 2
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%12s", xLabel)
	for _, name := range order {
		fmt.Fprintf(&sb, " %22s", name)
	}
	sb.WriteByte('\n')
	grids := make(map[string][]Point, len(curves))
	for name, c := range curves {
		grids[name] = c.Series(min, max, n)
	}
	for i := 0; i < n; i++ {
		var x float64
		for _, name := range order {
			x = grids[name][i].X
			break
		}
		fmt.Fprintf(&sb, "%12.3f", x)
		for _, name := range order {
			fmt.Fprintf(&sb, " %21.1f%%", grids[name][i].Pct)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Summary returns a one-line digest of a CDF: n, mean, median, p90, max.
func Summary(c *CDF) string {
	if c.N() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.3f median=%.3f p90=%.3f max=%.3f",
		c.N(), c.Mean(), c.Median(), c.Quantile(0.9), c.Max())
}
