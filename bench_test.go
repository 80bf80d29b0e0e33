// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation (§5). Each benchmark runs the corresponding
// experiment driver on a deterministic slice of the synthetic dataset
// and reports the figure's headline statistics as custom metrics, so
// `go test -bench . -benchmem` reproduces the paper end to end. The
// full-dataset series (exact CDF rows) are printed by cmd/nexitsim.
package main

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/stability"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// benchDataset caches the generated dataset across benchmarks.
var (
	benchOnce sync.Once
	benchDS   *experiments.Dataset
)

func dataset(b *testing.B) *experiments.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		cfg := gen.DefaultConfig()
		cfg.NumISPs = 30 // a representative slice; cmd/nexitsim runs all 65
		ds, err := experiments.Load(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchDS = ds
	})
	return benchDS
}

// distanceOpts bounds the distance experiments for benchmarking.
var distanceOpts = experiments.Options{MaxPairs: 25, Seed: 1}

// bandwidthOpts bounds the failure experiments for benchmarking.
var bandwidthOpts = experiments.BandwidthOptions{
	Options:     experiments.Options{MaxPairs: 8, Seed: 1},
	Workload:    traffic.Gravity,
	MaxFailures: 30,
}

func median(xs []float64) float64 {
	c := stats.NewCDF(xs)
	if c.N() == 0 {
		return 0
	}
	return c.Median()
}

// collect runs a streaming driver b.N times and returns the last run's
// records.
func collect[R any](b *testing.B, stream func(sink func(int, *R) error) error) []*R {
	b.Helper()
	var out []*R
	for i := 0; i < b.N; i++ {
		out = out[:0]
		if err := stream(func(_ int, r *R) error { out = append(out, r); return nil }); err != nil {
			b.Fatal(err)
		}
	}
	return out
}

// medianOf is the median of one value per record.
func medianOf[R any](rs []*R, value func(*R) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = value(r)
	}
	return median(xs)
}

type (
	distanceRecord  = experiments.DistancePairResult
	bandwidthRecord = experiments.BandwidthCaseResult
	cheatRecord     = experiments.CheatPairResult
)

func distanceRecords(b *testing.B) []*distanceRecord {
	ds := dataset(b)
	return collect(b, func(sink func(int, *distanceRecord) error) error {
		return experiments.DistanceStream(ds, distanceOpts, sink)
	})
}

func bandwidthRecords(b *testing.B) []*bandwidthRecord {
	ds := dataset(b)
	return collect(b, func(sink func(int, *bandwidthRecord) error) error {
		_, err := experiments.BandwidthStream(ds, bandwidthOpts, sink)
		return err
	})
}

// BenchmarkFig4DistanceGain regenerates Figure 4: total and individual
// distance gains of negotiated vs globally optimal routing.
func BenchmarkFig4DistanceGain(b *testing.B) {
	rs := distanceRecords(b)
	b.ReportMetric(medianOf(rs, func(r *distanceRecord) float64 { return r.GainNeg }), "negotiated-median-%gain")
	b.ReportMetric(medianOf(rs, func(r *distanceRecord) float64 { return r.GainOpt }), "optimal-median-%gain")
	var indNeg []float64
	losers := 0
	for _, r := range rs {
		indNeg = append(indNeg, r.IndNegA, r.IndNegB)
		for _, g := range []float64{r.IndOptA, r.IndOptB} {
			if g < 0 {
				losers++
			}
		}
	}
	b.ReportMetric(stats.NewCDF(indNeg).Quantile(0), "negotiated-worst-ISP-%gain")
	b.ReportMetric(100*float64(losers)/float64(2*len(rs)), "optimal-%ISPs-losing")
}

// BenchmarkFig5FlowLocalStrategies regenerates Figure 5: the flow-local
// strategies that discard bad alternatives per flow.
func BenchmarkFig5FlowLocalStrategies(b *testing.B) {
	rs := distanceRecords(b)
	b.ReportMetric(medianOf(rs, func(r *distanceRecord) float64 { return r.GainPareto }), "flow-pareto-median-%gain")
	b.ReportMetric(medianOf(rs, func(r *distanceRecord) float64 { return r.GainBothBetter }), "flow-both-better-median-%gain")
	b.ReportMetric(medianOf(rs, func(r *distanceRecord) float64 { return r.GainNeg }), "negotiated-median-%gain")
}

// BenchmarkFig6FlowLevel regenerates Figure 6: per-flow gains pooled
// across pairs (7% of flows gain >20%, 1% gain >50% in the paper).
func BenchmarkFig6FlowLevel(b *testing.B) {
	var flows []float64
	for _, r := range distanceRecords(b) {
		flows = append(flows, r.FlowGainNeg...)
	}
	neg := stats.NewCDF(flows)
	b.ReportMetric(100*(1-neg.At(20)), "%flows-gaining-over-20%")
	b.ReportMetric(100*(1-neg.At(50)), "%flows-gaining-over-50%")
}

// BenchmarkFig7BandwidthMEL regenerates Figure 7: post-failure maximum
// excess load relative to the fractional LP optimum.
func BenchmarkFig7BandwidthMEL(b *testing.B) {
	rs := bandwidthRecords(b)
	b.ReportMetric(medianOf(rs, func(r *bandwidthRecord) float64 { return r.UpDef }), "upstream-default-median-ratio")
	b.ReportMetric(medianOf(rs, func(r *bandwidthRecord) float64 { return r.UpNeg }), "upstream-negotiated-median-ratio")
	b.ReportMetric(medianOf(rs, func(r *bandwidthRecord) float64 { return r.DownDef }), "downstream-default-median-ratio")
	b.ReportMetric(medianOf(rs, func(r *bandwidthRecord) float64 { return r.DownNeg }), "downstream-negotiated-median-ratio")
}

// BenchmarkFig8Unilateral regenerates Figure 8: the downstream's MEL
// when the upstream optimizes unilaterally.
func BenchmarkFig8Unilateral(b *testing.B) {
	var ratios []float64
	for _, r := range bandwidthRecords(b) {
		ratios = append(ratios, r.UnilateralDownRatio)
	}
	c := stats.NewCDF(ratios)
	b.ReportMetric(c.Median(), "downstream-ratio-median")
	b.ReportMetric(100*(1-c.At(2)), "%cases-downstream-doubles")
}

// BenchmarkFig9DiverseCriteria regenerates Figure 9: upstream bandwidth
// vs downstream distance objectives. The diverse default is the
// default baseline, UpDef.
func BenchmarkFig9DiverseCriteria(b *testing.B) {
	rs := bandwidthRecords(b)
	b.ReportMetric(medianOf(rs, func(r *bandwidthRecord) float64 { return r.DiverseUpNeg }), "upstream-negotiated-median-ratio")
	b.ReportMetric(medianOf(rs, func(r *bandwidthRecord) float64 { return r.UpDef }), "upstream-default-median-ratio")
	b.ReportMetric(medianOf(rs, func(r *bandwidthRecord) float64 { return r.DiverseDownGain }), "downstream-median-%gain")
}

// BenchmarkFig10CheatDistance regenerates Figure 10: the impact of one
// ISP lying about its distance preferences.
func BenchmarkFig10CheatDistance(b *testing.B) {
	ds := dataset(b)
	rs := collect(b, func(sink func(int, *cheatRecord) error) error {
		return experiments.DistanceCheatStream(ds, distanceOpts, sink)
	})
	b.ReportMetric(medianOf(rs, func(r *cheatRecord) float64 { return r.TotalTruthful }), "truthful-total-median-%gain")
	b.ReportMetric(medianOf(rs, func(r *cheatRecord) float64 { return r.TotalCheat }), "cheater-total-median-%gain")
	b.ReportMetric(medianOf(rs, func(r *cheatRecord) float64 { return r.IndCheater }), "cheater-individual-median-%gain")
	b.ReportMetric(medianOf(rs, func(r *cheatRecord) float64 { return r.IndVictim }), "victim-individual-median-%gain")
}

// BenchmarkFig11CheatBandwidth regenerates Figure 11: the upstream
// cheats in the bandwidth experiment.
func BenchmarkFig11CheatBandwidth(b *testing.B) {
	rs := bandwidthRecords(b)
	b.ReportMetric(medianOf(rs, func(r *bandwidthRecord) float64 { return r.UpNeg }), "truthful-upstream-median-ratio")
	b.ReportMetric(medianOf(rs, func(r *bandwidthRecord) float64 { return r.CheatUp }), "cheater-upstream-median-ratio")
	b.ReportMetric(medianOf(rs, func(r *bandwidthRecord) float64 { return r.DownNeg }), "truthful-downstream-median-ratio")
	b.ReportMetric(medianOf(rs, func(r *bandwidthRecord) float64 { return r.CheatDown }), "cheated-downstream-median-ratio")
}

// BenchmarkExtraGainVsInterconnections regenerates the §5.1 textual
// analysis: ISPs with more interconnections gain more.
func BenchmarkExtraGainVsInterconnections(b *testing.B) {
	var few, many []float64
	for _, r := range distanceRecords(b) {
		if r.Interconnections <= 3 {
			few = append(few, r.GainNeg)
		} else {
			many = append(many, r.GainNeg)
		}
	}
	b.ReportMetric(median(few), "median-%gain-(<=3-ix)")
	b.ReportMetric(median(many), "median-%gain-(>3-ix)")
}

// BenchmarkExtraFlowFraction regenerates the §5.1/§5.2 textual claim
// that only ~20% of flows need non-default routing.
func BenchmarkExtraFlowFraction(b *testing.B) {
	rs := distanceRecords(b)
	b.ReportMetric(100*medianOf(rs, func(r *distanceRecord) float64 { return r.NonDefaultFraction }), "%flows-moved-median")
}

// BenchmarkExtraGroupNegotiation regenerates the §5.1 group ablation:
// negotiating within separate groups loses part of the benefit.
func BenchmarkExtraGroupNegotiation(b *testing.B) {
	rs := distanceRecords(b)
	b.ReportMetric(medianOf(rs, func(r *distanceRecord) float64 { return r.GainNeg }), "whole-table-median-%gain")
	b.ReportMetric(medianOf(rs, func(r *distanceRecord) float64 { return r.GainGroup4 }), "4-groups-median-%gain")
}

// BenchmarkExtraPreferenceRange regenerates the §5 textual claim that
// increasing the class range beyond [-10, 10] does not help. Each bound
// reports the ablation's median, the gain at rank ⌊n/2⌋+1 of n.
func BenchmarkExtraPreferenceRange(b *testing.B) {
	ds := dataset(b)
	opt := distanceOpts
	opt.MaxPairs = 10
	bounds := []int{1, 3, 10, 50}
	rs := collect(b, func(sink func(int, *experiments.AblationPairResult) error) error {
		return experiments.AblationStream(ds, opt, bounds, sink)
	})
	for i, p := range bounds {
		gains := make([]float64, len(rs))
		for j, r := range rs {
			gains[j] = r.GainNeg[i]
		}
		sort.Float64s(gains)
		b.ReportMetric(gains[len(gains)/2], fmt.Sprintf("P=%d-median-%%gain", p))
	}
}

// BenchmarkExtraScalability regenerates the §6 claim that negotiating
// only the biggest flows retains most of the benefit.
func BenchmarkExtraScalability(b *testing.B) {
	ds := dataset(b)
	opt := distanceOpts
	opt.MaxPairs = 10
	rs := collect(b, func(sink func(int, *experiments.ScalabilityPairResult) error) error {
		return experiments.ScalabilityStream(ds, opt, []float64{0.5, 1.0}, sink)
	})
	b.ReportMetric(100*medianOf(rs, func(r *experiments.ScalabilityPairResult) float64 { return r.FlowShares[0] }),
		"%flows-for-half-the-traffic")
	b.ReportMetric(100*medianOf(rs, func(r *experiments.ScalabilityPairResult) float64 { return r.GainShares[0] }),
		"%gain-retained-at-half-traffic")
}

// BenchmarkExtraDestinationBased regenerates footnote 2: negotiation
// works under destination-based routing too.
func BenchmarkExtraDestinationBased(b *testing.B) {
	ds := dataset(b)
	opt := distanceOpts
	opt.MaxPairs = 10
	rs := collect(b, func(sink func(int, *experiments.DestinationPairResult) error) error {
		return experiments.DestinationStream(ds, opt, sink)
	})
	b.ReportMetric(medianOf(rs, func(r *experiments.DestinationPairResult) float64 { return r.GainSrcDst }), "src-dst-median-%gain")
	b.ReportMetric(medianOf(rs, func(r *experiments.DestinationPairResult) float64 { return r.GainDstOnly }), "dst-only-median-%gain")
}

// BenchmarkExtraStability regenerates the motivation-section analysis:
// how often reactive unilateral routing enters a cycle of influence
// after a failure, versus negotiation which terminates by construction.
func BenchmarkExtraStability(b *testing.B) {
	ds := dataset(b)
	opt := experiments.BandwidthOptions{
		Options:     experiments.Options{MaxPairs: 6, Seed: 1},
		Workload:    traffic.Gravity,
		MaxFailures: 24,
	}
	rs := collect(b, func(sink func(int, *experiments.StabilityCaseResult) error) error {
		_, err := experiments.StabilityStream(ds, opt, sink)
		return err
	})
	oscillated := 0
	for _, r := range rs {
		if r.Outcome == stability.Oscillated {
			oscillated++
		}
	}
	b.ReportMetric(100*float64(oscillated)/float64(len(rs)), "%cases-oscillating")
	b.ReportMetric(medianOf(rs, func(r *experiments.StabilityCaseResult) float64 { return r.ReactiveWorst }), "reactive-worst-MEL-median")
	b.ReportMetric(medianOf(rs, func(r *experiments.StabilityCaseResult) float64 { return r.NegotiatedWorst }), "negotiated-worst-MEL-median")
}
