package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceKnownPairs(t *testing.T) {
	// Reference distances computed with the haversine formula on a
	// sphere of radius 6371 km; tolerance 1% covers rounding of the
	// city coordinates.
	cases := []struct {
		name   string
		a, b   Point
		wantKm float64
	}{
		{"seattle-newyork", Point{47.61, -122.33}, Point{40.71, -74.01}, 3870},
		{"london-paris", Point{51.51, -0.13}, Point{48.86, 2.35}, 343},
		{"sydney-perth", Point{-33.87, 151.21}, Point{-31.95, 115.86}, 3290},
		{"equator-quarter", Point{0, 0}, Point{0, 90}, 2 * math.Pi * EarthRadiusKm / 4},
	}
	for _, c := range cases {
		got := DistanceKm(c.a, c.b)
		if math.Abs(got-c.wantKm)/c.wantKm > 0.01 {
			t.Errorf("%s: DistanceKm = %.1f, want ~%.1f", c.name, got, c.wantKm)
		}
	}
}

func TestDistanceZero(t *testing.T) {
	p := Point{12.34, 56.78}
	if d := DistanceKm(p, p); d != 0 {
		t.Errorf("DistanceKm(p,p) = %v, want 0", d)
	}
}

// clampPoint maps arbitrary float64s into valid coordinates so quick can
// explore the whole space without generating invalid points.
func clampPoint(p Point) Point {
	lat := math.Mod(p.Lat, 90)
	lon := math.Mod(p.Lon, 180)
	if math.IsNaN(lat) || math.IsInf(lat, 0) {
		lat = 0
	}
	if math.IsNaN(lon) || math.IsInf(lon, 0) {
		lon = 0
	}
	return Point{lat, lon}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(a, b Point) bool {
		a, b = clampPoint(a), clampPoint(b)
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceNonNegativeAndBounded(t *testing.T) {
	half := math.Pi * EarthRadiusKm // max great-circle distance
	f := func(a, b Point) bool {
		a, b = clampPoint(a), clampPoint(b)
		d := DistanceKm(a, b)
		return d >= 0 && d <= half+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	f := func(a, b, c Point) bool {
		a, b, c = clampPoint(a), clampPoint(b), clampPoint(c)
		// Great-circle distance is a metric on the sphere.
		return DistanceKm(a, c) <= DistanceKm(a, b)+DistanceKm(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointValid(t *testing.T) {
	valid := []Point{{0, 0}, {90, 180}, {-90, -180}, {47.6, -122.3}}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	invalid := []Point{{91, 0}, {0, 181}, {-90.5, 0}, {0, -180.01}}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}
