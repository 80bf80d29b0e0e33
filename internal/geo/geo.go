// Package geo provides geographic primitives used throughout the Nexit
// simulator: points on the Earth's surface and great-circle distances.
//
// The paper estimates intra-ISP link lengths from the geographic distance
// between PoP city coordinates (Padmanabhan & Subramanian, SIGCOMM 2001),
// so distance computations here underpin both the topology generator and
// the distance metric of Section 5.1.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean radius of the Earth in kilometers.
const EarthRadiusKm = 6371.0

// Point is a location on the Earth's surface in decimal degrees.
// Latitude is positive north, longitude positive east.
type Point struct {
	Lat float64
	Lon float64
}

// Valid reports whether p lies within the legal latitude/longitude ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

// String renders the point as "lat,lon" with four decimal places.
func (p Point) String() string {
	return fmt.Sprintf("%.4f,%.4f", p.Lat, p.Lon)
}

// radians converts degrees to radians.
func radians(deg float64) float64 { return deg * math.Pi / 180 }

// DistanceKm returns the great-circle distance between a and b in
// kilometers, computed with the haversine formula. The result is
// symmetric and non-negative, and zero iff the points coincide.
func DistanceKm(a, b Point) float64 {
	if a == b {
		return 0
	}
	lat1, lon1 := radians(a.Lat), radians(a.Lon)
	lat2, lon2 := radians(b.Lat), radians(b.Lon)
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}
