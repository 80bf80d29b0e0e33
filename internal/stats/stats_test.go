package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4})
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {9, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if c.Quantile(0) != 1 || c.Max() != 4 || c.Median() != 2 {
		t.Errorf("min/max/median = %v/%v/%v", c.Quantile(0), c.Max(), c.Median())
	}
	if c.Mean() != 2.5 {
		t.Errorf("Mean = %v", c.Mean())
	}
}

func TestCDFDropsNaN(t *testing.T) {
	c := NewCDF([]float64{1, math.NaN(), 2})
	if c.N() != 2 {
		t.Errorf("N = %d, want 2", c.N())
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCDF(nil).Quantile(0.5) },
		func() { NewCDF([]float64{1}).Quantile(-0.1) },
		func() { NewCDF([]float64{1}).Quantile(1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestQuantileNearestRank(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if c.Quantile(0.5) != 30 {
		t.Errorf("median = %v", c.Quantile(0.5))
	}
	if c.Quantile(0.9) != 50 {
		t.Errorf("p90 = %v", c.Quantile(0.9))
	}
	if c.Quantile(0) != 10 {
		t.Errorf("q0 = %v", c.Quantile(0))
	}
}

func TestCDFMonotonicProperty(t *testing.T) {
	f := func(samples []float64, a, b float64) bool {
		clean := make([]float64, 0, len(samples))
		for _, s := range samples {
			if !math.IsNaN(s) && !math.IsInf(s, 0) {
				clean = append(clean, s)
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		c := NewCDF(clean)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.At(lo) <= c.At(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFAtMatchesCount(t *testing.T) {
	f := func(samples []float64, x float64) bool {
		clean := make([]float64, 0, len(samples))
		for _, s := range samples {
			if !math.IsNaN(s) && !math.IsInf(s, 0) {
				clean = append(clean, s)
			}
		}
		if math.IsNaN(x) || len(clean) == 0 {
			return true
		}
		count := 0
		for _, s := range clean {
			if s <= x {
				count++
			}
		}
		c := NewCDF(clean)
		return math.Abs(c.At(x)-float64(count)/float64(len(clean))) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	c := NewCDF([]float64{0, 5, 10})
	pts := c.Series(0, 10, 3)
	if len(pts) != 3 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].X != 0 || pts[2].X != 10 {
		t.Errorf("x-grid wrong: %v", pts)
	}
	if math.Abs(pts[0].Pct-100.0/3) > 1e-9 || pts[2].Pct != 100 {
		t.Errorf("percentages wrong: %v", pts)
	}
	if got := c.Series(0, 1, 0); len(got) != 2 {
		t.Errorf("degenerate n should clamp to 2, got %d", len(got))
	}
	// Quantile consistency: Pct at Quantile(q) >= 100q.
	qs := []float64{0.1, 0.5, 0.9}
	for _, q := range qs {
		x := c.Quantile(q)
		if 100*c.At(x) < 100*q-1e-9 {
			t.Errorf("At(Quantile(%v)) = %v < %v", q, c.At(x), q)
		}
	}
	// Sorted invariants of the underlying data.
	if !sort.Float64sAreSorted(c.sorted) {
		t.Error("CDF samples not sorted")
	}
}

func TestFormatSeries(t *testing.T) {
	curves := map[string]*CDF{
		"negotiated": NewCDF([]float64{1, 2, 3}),
		"optimal":    NewCDF([]float64{1, 1, 2}),
	}
	out := FormatSeries("% gain", 0, 4, 5, curves, []string{"negotiated", "optimal"})
	if !strings.Contains(out, "negotiated") || !strings.Contains(out, "optimal") {
		t.Error("missing curve names")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // header + 5 grid rows
		t.Errorf("got %d lines, want 6:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "100.0%") {
		t.Error("expected a 100% entry")
	}
}

// Fewer than two points still renders both ends of the axis: the
// curves clamp their grids to two points, and so does the table.
func TestFormatSeriesClampsPoints(t *testing.T) {
	curves := map[string]*CDF{"negotiated": NewCDF([]float64{1, 2, 3})}
	for _, n := range []int{-1, 0, 1, 2} {
		out := FormatSeries("% gain", 0, 4, n, curves, []string{"negotiated"})
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != 3 { // header + the min and max rows
			t.Fatalf("n=%d: got %d lines, want 3:\n%s", n, len(lines), out)
		}
		if !strings.HasPrefix(strings.TrimSpace(lines[2]), "4.000") || !strings.HasSuffix(lines[2], "100.0%") {
			t.Errorf("n=%d: last row %q, want x=4.000 at 100.0%%", n, lines[2])
		}
	}
}

func TestSummary(t *testing.T) {
	if Summary(NewCDF(nil)) != "n=0" {
		t.Error("empty summary wrong")
	}
	s := Summary(NewCDF([]float64{1, 2, 3}))
	if !strings.Contains(s, "n=3") || !strings.Contains(s, "median=2.000") {
		t.Errorf("summary = %q", s)
	}
}
