package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMEL(t *testing.T) {
	load := []float64{2, 6, 1}
	capv := []float64{2, 3, 0} // zero-capacity skipped
	if got := MEL(load, capv); got != 2 {
		t.Errorf("MEL = %v, want 2", got)
	}
	if got := MEL(nil, nil); got != 0 {
		t.Errorf("MEL(empty) = %v, want 0", got)
	}
}

func TestMaxIncreaseOnPath(t *testing.T) {
	load := []float64{1, 2, 3, 4}
	capv := []float64{2, 2, 2, 2}
	// Links 0 and 2, delta 1: ratios (1+1)/2=1, (3+1)/2=2.
	if got := MaxIncreaseOnPath32(load, capv, []int32{0, 2}, 1); got != 2 {
		t.Errorf("MaxIncreaseOnPath32 = %v, want 2", got)
	}
	if got := MaxIncreaseOnPath32(load, capv, nil, 1); got != 0 {
		t.Errorf("empty path should give 0, got %v", got)
	}
}

func TestFortzThorupLinkKnownValues(t *testing.T) {
	// With capacity 1: phi(1/3) = 1/3; phi(2/3) = 1/3 + 3*(1/3) = 4/3;
	// phi(0.9) = 4/3 + 10*(0.9-2/3); phi(1) = that + 70*0.1;
	// phi(1.1) = +500*0.1; phi(1.2) = +5000*0.1.
	phi := func(u float64) float64 { return FortzThorupLink(u, 1) }
	cases := []struct{ u, want float64 }{
		{0, 0},
		{1.0 / 3, 1.0 / 3},
		{2.0 / 3, 4.0 / 3},
		{0.9, 4.0/3 + 10*(0.9-2.0/3)},
		{1.0, 4.0/3 + 10*(0.9-2.0/3) + 70*0.1},
		{1.1, 4.0/3 + 10*(0.9-2.0/3) + 70*0.1 + 500*0.1},
		{1.2, 4.0/3 + 10*(0.9-2.0/3) + 70*0.1 + 500*0.1 + 5000*0.1},
	}
	for _, c := range cases {
		if got := phi(c.u); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("phi(%v) = %v, want %v", c.u, got, c.want)
		}
	}
}

func TestFortzThorupScalesWithCapacity(t *testing.T) {
	// Cost at utilization u with capacity c equals c * cost at capacity 1.
	for _, u := range []float64{0.2, 0.5, 0.95, 1.3} {
		c1 := FortzThorupLink(u, 1)
		c10 := FortzThorupLink(u*10, 10)
		if math.Abs(c10-10*c1) > 1e-9 {
			t.Errorf("u=%v: cost(cap=10) = %v, want %v", u, c10, 10*c1)
		}
	}
}

func TestFortzThorupProperties(t *testing.T) {
	// phi is non-negative, zero capacity gives zero, and it is
	// monotonically non-decreasing and convex in load.
	f := func(rawLoad, rawCap float64) bool {
		load := math.Abs(math.Mod(rawLoad, 1000))
		capv := math.Abs(math.Mod(rawCap, 1000))
		if math.IsNaN(load) || math.IsNaN(capv) || capv == 0 {
			return true
		}
		c := FortzThorupLink(load, capv)
		cMore := FortzThorupLink(load*1.1+0.1, capv)
		if c < 0 || cMore < c-1e-12*(1+c) {
			return false
		}
		// Convexity probe: phi(mid) <= (phi(lo)+phi(hi))/2, with a
		// relative tolerance (costs reach ~1e6, where absolute 1e-9 is
		// below one ulp).
		lo, hi := load, load*1.5+1
		mid := (lo + hi) / 2
		avg := (FortzThorupLink(lo, capv) + FortzThorupLink(hi, capv)) / 2
		return FortzThorupLink(mid, capv) <= avg+1e-9*(1+math.Abs(avg))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// fortzThorup sums the link costs over a topology, the whole-network
// Fortz–Thorup cost the per-link function is meant to add up to.
func fortzThorup(load, capv []float64) float64 {
	var sum float64
	for i := range load {
		sum += FortzThorupLink(load[i], capv[i])
	}
	return sum
}

func TestFortzThorupSum(t *testing.T) {
	load := []float64{0.5, 1}
	capv := []float64{1, 1}
	want := FortzThorupLink(0.5, 1) + FortzThorupLink(1, 1)
	if got := fortzThorup(load, capv); math.Abs(got-want) > 1e-12 {
		t.Errorf("FortzThorup = %v, want %v", got, want)
	}
	if got := FortzThorupLink(1, 0); got != 0 {
		t.Errorf("zero capacity should cost 0, got %v", got)
	}
}

func TestGainPercent(t *testing.T) {
	if got := GainPercent(200, 150); got != 25 {
		t.Errorf("GainPercent = %v, want 25", got)
	}
	if got := GainPercent(100, 120); got != -20 {
		t.Errorf("GainPercent = %v, want -20", got)
	}
	if got := GainPercent(0, 5); got != 0 {
		t.Errorf("GainPercent zero baseline = %v, want 0", got)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(6, 3, 1); got != 2 {
		t.Errorf("Ratio = %v, want 2", got)
	}
	if got := Ratio(6, 0, 1); got != 1 {
		t.Errorf("Ratio fallback = %v, want 1", got)
	}
}
