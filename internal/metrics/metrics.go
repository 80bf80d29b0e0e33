// Package metrics implements the routing-quality metrics of the paper's
// evaluation: total path distance (§5.1), maximum excess load — MEL
// (§5.2), and the Fortz–Thorup piecewise-linear link-cost function the
// paper uses as an alternate bandwidth metric.
package metrics

import "math"

// MEL returns the maximum excess load: the maximum over links of the
// ratio of offered load to capacity. With capacities assigned
// proportionally to pre-failure load (package capacity), this is exactly
// the paper's "maximum ratio of load after and before the failure on any
// link in the topology". Links with non-positive capacity are skipped.
func MEL(load, capv []float64) float64 {
	var m float64
	for i := range load {
		if capv[i] <= 0 {
			continue
		}
		if r := load[i] / capv[i]; r > m {
			m = r
		}
	}
	return m
}

// MaxIncreaseOnPath returns the maximum, over the given links, of the
// load-to-capacity ratio after adding delta to each of those links. It is
// the per-flow quantity the paper's bandwidth preference mapping uses:
// "the maximum increase in link load along the path".
func MaxIncreaseOnPath(load, capv []float64, links []int, delta float64) float64 {
	var m float64
	for _, li := range links {
		if capv[li] <= 0 {
			continue
		}
		if r := (load[li] + delta) / capv[li]; r > m {
			m = r
		}
	}
	return m
}

// MaxIncreaseOnPath32 is MaxIncreaseOnPath over an int32 link row — the
// element type of routing.PathIndex rows, which the evaluator hot loops
// read without converting. The float operations are identical to the
// []int variant, so both produce byte-identical results for the same
// path.
func MaxIncreaseOnPath32(load, capv []float64, links []int32, delta float64) float64 {
	var m float64
	for _, li := range links {
		if capv[li] <= 0 {
			continue
		}
		if r := (load[li] + delta) / capv[li]; r > m {
			m = r
		}
	}
	return m
}

// Fortz–Thorup piecewise-linear cost (Fortz & Thorup, INFOCOM 2000):
// the cost of a link is phi(u) where u = load/capacity, with slopes that
// increase sharply as the link approaches and exceeds capacity. The paper
// lists this as the alternate ISP optimization metric for bandwidth.
var (
	ftBreaks = []float64{0, 1.0 / 3, 2.0 / 3, 9.0 / 10, 1, 11.0 / 10}
	ftSlopes = []float64{1, 3, 10, 70, 500, 5000}
)

// FortzThorupLink returns the Fortz–Thorup cost of one link with the
// given load and capacity. Cost is measured in units of capacity (the
// standard normalization). A non-positive capacity yields zero cost.
func FortzThorupLink(load, capv float64) float64 {
	if capv <= 0 {
		return 0
	}
	u := load / capv
	if u <= 0 {
		return 0
	}
	var cost float64
	for i := range ftBreaks {
		hi := math.Inf(1)
		if i+1 < len(ftBreaks) {
			hi = ftBreaks[i+1]
		}
		if u <= ftBreaks[i] {
			break
		}
		seg := math.Min(u, hi) - ftBreaks[i]
		cost += seg * ftSlopes[i]
	}
	return cost * capv
}

// GainPercent returns the percentage improvement of value over baseline
// for metrics where smaller is better: 100 * (baseline - value) /
// baseline. A zero baseline yields zero.
func GainPercent(baseline, value float64) float64 {
	if baseline == 0 {
		return 0
	}
	return 100 * (baseline - value) / baseline
}

// Ratio returns value/reference, or the given fallback when the
// reference is zero. The paper's Figures 7-11 plot MEL ratios to the
// optimal MEL.
func Ratio(value, reference, fallback float64) float64 {
	if reference == 0 {
		return fallback
	}
	return value / reference
}
