// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation (§5). Each benchmark runs the corresponding
// experiment driver on a deterministic slice of the synthetic dataset
// and reports the figure's headline statistics as custom metrics, so
// `go test -bench . -benchmem` reproduces the paper end to end. The
// full-dataset series (exact CDF rows) are printed by cmd/nexitsim.
package main

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/continuous"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/nexit"
	"repro/internal/nexitwire"
	"repro/internal/pairsim"
	"repro/internal/runner"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/topology"
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

// BenchmarkFig4DistanceGain regenerates Figure 4: total and individual
// distance gains of negotiated vs globally optimal routing.
func BenchmarkFig4DistanceGain(b *testing.B) {
	ds := dataset(b)
	var res *experiments.DistanceResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Distance(ds, distanceOpts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(median(res.PairGainNeg), "negotiated-median-%gain")
	b.ReportMetric(median(res.PairGainOpt), "optimal-median-%gain")
	b.ReportMetric(stats.NewCDF(res.IndGainNeg).Min(), "negotiated-worst-ISP-%gain")
	losers := 0
	for _, g := range res.IndGainOpt {
		if g < 0 {
			losers++
		}
	}
	b.ReportMetric(100*float64(losers)/float64(len(res.IndGainOpt)), "optimal-%ISPs-losing")
}

// BenchmarkFig5FlowLocalStrategies regenerates Figure 5: the flow-local
// strategies that discard bad alternatives per flow.
func BenchmarkFig5FlowLocalStrategies(b *testing.B) {
	ds := dataset(b)
	var res *experiments.DistanceResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Distance(ds, distanceOpts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(median(res.PairGainPareto), "flow-pareto-median-%gain")
	b.ReportMetric(median(res.PairGainBothBetter), "flow-both-better-median-%gain")
	b.ReportMetric(median(res.PairGainNeg), "negotiated-median-%gain")
}

// BenchmarkFig6FlowLevel regenerates Figure 6: per-flow gains pooled
// across pairs (7% of flows gain >20%, 1% gain >50% in the paper).
func BenchmarkFig6FlowLevel(b *testing.B) {
	ds := dataset(b)
	var res *experiments.DistanceResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Distance(ds, distanceOpts); err != nil {
			b.Fatal(err)
		}
	}
	neg := stats.NewCDF(res.FlowGainNeg)
	b.ReportMetric(100*neg.FractionAbove(20), "%flows-gaining-over-20%")
	b.ReportMetric(100*neg.FractionAbove(50), "%flows-gaining-over-50%")
}

// BenchmarkFig7BandwidthMEL regenerates Figure 7: post-failure maximum
// excess load relative to the fractional LP optimum.
func BenchmarkFig7BandwidthMEL(b *testing.B) {
	ds := dataset(b)
	var res *experiments.BandwidthResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Bandwidth(ds, bandwidthOpts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(median(res.UpDef), "upstream-default-median-ratio")
	b.ReportMetric(median(res.UpNeg), "upstream-negotiated-median-ratio")
	b.ReportMetric(median(res.DownDef), "downstream-default-median-ratio")
	b.ReportMetric(median(res.DownNeg), "downstream-negotiated-median-ratio")
}

// BenchmarkFig8Unilateral regenerates Figure 8: the downstream's MEL
// when the upstream optimizes unilaterally.
func BenchmarkFig8Unilateral(b *testing.B) {
	ds := dataset(b)
	var res *experiments.BandwidthResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Bandwidth(ds, bandwidthOpts); err != nil {
			b.Fatal(err)
		}
	}
	c := stats.NewCDF(res.UnilateralDownRatio)
	b.ReportMetric(c.Median(), "downstream-ratio-median")
	b.ReportMetric(100*c.FractionAbove(2), "%cases-downstream-doubles")
}

// BenchmarkFig9DiverseCriteria regenerates Figure 9: upstream bandwidth
// vs downstream distance objectives.
func BenchmarkFig9DiverseCriteria(b *testing.B) {
	ds := dataset(b)
	var res *experiments.BandwidthResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Bandwidth(ds, bandwidthOpts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(median(res.DiverseUpNeg), "upstream-negotiated-median-ratio")
	b.ReportMetric(median(res.DiverseUpDef), "upstream-default-median-ratio")
	b.ReportMetric(median(res.DiverseDownGain), "downstream-median-%gain")
}

// BenchmarkFig10CheatDistance regenerates Figure 10: the impact of one
// ISP lying about its distance preferences.
func BenchmarkFig10CheatDistance(b *testing.B) {
	ds := dataset(b)
	var res *experiments.DistanceCheatResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.DistanceCheat(ds, distanceOpts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(median(res.TotalTruthful), "truthful-total-median-%gain")
	b.ReportMetric(median(res.TotalCheat), "cheater-total-median-%gain")
	b.ReportMetric(median(res.IndCheater), "cheater-individual-median-%gain")
	b.ReportMetric(median(res.IndVictim), "victim-individual-median-%gain")
}

// BenchmarkFig11CheatBandwidth regenerates Figure 11: the upstream
// cheats in the bandwidth experiment.
func BenchmarkFig11CheatBandwidth(b *testing.B) {
	ds := dataset(b)
	var res *experiments.BandwidthResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Bandwidth(ds, bandwidthOpts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(median(res.UpNeg), "truthful-upstream-median-ratio")
	b.ReportMetric(median(res.CheatUpNeg), "cheater-upstream-median-ratio")
	b.ReportMetric(median(res.DownNeg), "truthful-downstream-median-ratio")
	b.ReportMetric(median(res.CheatDownNeg), "cheated-downstream-median-ratio")
}

// BenchmarkExtraGainVsInterconnections regenerates the §5.1 textual
// analysis: ISPs with more interconnections gain more.
func BenchmarkExtraGainVsInterconnections(b *testing.B) {
	ds := dataset(b)
	var res *experiments.DistanceResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Distance(ds, distanceOpts); err != nil {
			b.Fatal(err)
		}
	}
	var few, many []float64
	for k, gains := range res.GainVsInterconnections {
		if k <= 3 {
			few = append(few, gains...)
		} else {
			many = append(many, gains...)
		}
	}
	b.ReportMetric(median(few), "median-%gain-(<=3-ix)")
	b.ReportMetric(median(many), "median-%gain-(>3-ix)")
}

// BenchmarkExtraFlowFraction regenerates the §5.1/§5.2 textual claim
// that only ~20% of flows need non-default routing.
func BenchmarkExtraFlowFraction(b *testing.B) {
	ds := dataset(b)
	var res *experiments.DistanceResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Distance(ds, distanceOpts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*median(res.NonDefaultFraction), "%flows-moved-median")
}

// BenchmarkExtraGroupNegotiation regenerates the §5.1 group ablation:
// negotiating within separate groups loses part of the benefit.
func BenchmarkExtraGroupNegotiation(b *testing.B) {
	ds := dataset(b)
	var res *experiments.DistanceResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Distance(ds, distanceOpts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(median(res.PairGainNeg), "whole-table-median-%gain")
	b.ReportMetric(median(res.GroupGain4), "4-groups-median-%gain")
}

// BenchmarkExtraPreferenceRange regenerates the §5 textual claim that
// increasing the class range beyond [-10, 10] does not help.
func BenchmarkExtraPreferenceRange(b *testing.B) {
	ds := dataset(b)
	opt := distanceOpts
	opt.MaxPairs = 10
	var abl map[int]float64
	var err error
	for i := 0; i < b.N; i++ {
		if abl, err = experiments.PreferenceRangeAblation(ds, opt, []int{1, 3, 10, 50}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(abl[1], "P=1-median-%gain")
	b.ReportMetric(abl[3], "P=3-median-%gain")
	b.ReportMetric(abl[10], "P=10-median-%gain")
	b.ReportMetric(abl[50], "P=50-median-%gain")
}

// BenchmarkAblationScaleMode compares the cardinal-mapping scale modes
// called out in DESIGN.md: global (quantile) vs per-flow normalization.
func BenchmarkAblationScaleMode(b *testing.B) {
	ds := dataset(b)
	pairs := ds.DistancePairs()
	if len(pairs) > 10 {
		pairs = pairs[:10]
	}
	for _, mode := range []struct {
		name  string
		scale nexit.Scale
	}{{"global", nexit.ScaleGlobal}, {"per-flow", nexit.ScalePerFlow}} {
		b.Run(mode.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				total = 0
				for _, pair := range pairs {
					g := negotiatedGainWithScale(b, ds, pair, mode.scale)
					total += g
				}
			}
			b.ReportMetric(total/float64(len(pairs)), "mean-%gain")
		})
	}
}

// BenchmarkEngineThroughput measures the raw negotiation engine on one
// large pair (flows negotiated per second).
func BenchmarkEngineThroughput(b *testing.B) {
	ds := dataset(b)
	pairs := ds.DistancePairs()
	// Pick the pair with the most flows.
	best := pairs[0]
	bestFlows := 0
	for _, p := range pairs {
		if f := p.A.NumPoPs() * p.B.NumPoPs() * 2; f > bestFlows {
			best, bestFlows = p, f
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		negotiatedGainWithScale(b, ds, best, nexit.ScaleGlobal)
	}
	b.ReportMetric(float64(bestFlows), "flows-per-op")
}

// negotiatedGainWithScale runs one distance negotiation over a pair with
// the given cardinal scale mode and returns the total gain percentage.
func negotiatedGainWithScale(b *testing.B, ds *experiments.Dataset, pair *topology.Pair, scale nexit.Scale) float64 {
	b.Helper()
	s := pairsim.New(pair, ds.Cache)
	rev := s.Reverse()
	wAB := traffic.New(pair.A, pair.B, traffic.Identical, nil)
	wBA := traffic.New(pair.B, pair.A, traffic.Identical, nil)
	items := nexit.Items(wAB.Flows, wBA.Flows)
	defaults := make([]int, len(items))
	for i, it := range items {
		if it.Dir == nexit.AtoB {
			defaults[i] = s.EarlyExit(it.Flow)
		} else {
			defaults[i] = rev.EarlyExit(it.Flow)
		}
	}
	evalA := nexit.NewDistanceEvaluator(s, nexit.SideA, 10)
	evalA.Scale = scale
	evalB := nexit.NewDistanceEvaluator(s, nexit.SideB, 10)
	evalB.Scale = scale
	res, err := nexit.Negotiate(nexit.DefaultDistanceConfig(), evalA, evalB, items, defaults, s.NumAlternatives())
	if err != nil {
		b.Fatal(err)
	}
	dist := func(assign []int) (t float64) {
		for i, it := range items {
			if it.Dir == nexit.AtoB {
				t += s.TotalDistKm(it.Flow, assign[i])
			} else {
				t += rev.TotalDistKm(it.Flow, assign[i])
			}
		}
		return t
	}
	return metrics.GainPercent(dist(defaults), dist(res.Assign))
}

// BenchmarkEvaluatorPrefs measures the evaluator hot path in isolation:
// steady-state Prefs calls (full preference-table recomputation for
// every item on the table) per metric on the dataset's largest pair.
// prefs/s counts preference rows (items) evaluated per second.
// ReportAllocs tracks the scratch-reuse contract (DESIGN.md §12): after
// the first call warms the evaluator's buffers, Prefs must not allocate,
// so allocs/op stays near zero. Tracked across PRs in BENCH_runner.json.
func BenchmarkEvaluatorPrefs(b *testing.B) {
	ds := dataset(b)
	pairs := ds.DistancePairs()
	best := pairs[0]
	bestFlows := 0
	for _, p := range pairs {
		if f := p.A.NumPoPs() * p.B.NumPoPs() * 2; f > bestFlows {
			best, bestFlows = p, f
		}
	}
	s := pairsim.New(best, ds.Cache)
	rev := s.Reverse()
	wAB := traffic.New(best.A, best.B, traffic.Identical, nil)
	wBA := traffic.New(best.B, best.A, traffic.Identical, nil)
	items := nexit.Items(wAB.Flows, wBA.Flows)
	defaults := make([]int, len(items))
	for i, it := range items {
		if it.Dir == nexit.AtoB {
			defaults[i] = s.EarlyExit(it.Flow)
		} else {
			defaults[i] = rev.EarlyExit(it.Flow)
		}
	}
	nl := len(best.A.Links)
	ones := make([]float64, nl)
	for i := range ones {
		ones[i] = 1
	}
	for _, m := range []struct {
		name string
		eval nexit.Evaluator
	}{
		{"distance", nexit.NewDistanceEvaluator(s, nexit.SideA, 10)},
		{"bandwidth", nexit.NewBandwidthEvaluator(s, nexit.SideA, 10, make([]float64, nl), ones)},
		{"fortz-thorup", nexit.NewFortzThorupEvaluator(s, nexit.SideA, 10, make([]float64, nl), ones)},
	} {
		b.Run(m.name, func(b *testing.B) {
			m.eval.Prefs(items, defaults) // warm the evaluator scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prefs := m.eval.Prefs(items, defaults)
				if len(prefs) != len(items) {
					b.Fatalf("%d pref rows for %d items", len(prefs), len(items))
				}
			}
			b.ReportMetric(float64(len(items))*float64(b.N)/b.Elapsed().Seconds(), "prefs/s")
		})
	}
}

// BenchmarkGenerate measures dataset-format-v2 generation throughput
// (ISPs generated per second) on a 1000-ISP universe at 1, 2, and 8
// workers. Per-ISP streams make generation embarrassingly parallel:
// every worker count yields byte-identical output
// (TestGenerateParallelParity), so the spread between the worker counts
// is pure sharding speedup — near-linear on multi-core hardware, flat
// on a single-core runner. Tracked across PRs in BENCH_runner.json.
func BenchmarkGenerate(b *testing.B) {
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 1000
	for _, w := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				isps, err := gen.GenerateWorkers(cfg, w)
				if err != nil {
					b.Fatal(err)
				}
				if len(isps) != cfg.NumISPs {
					b.Fatalf("generated %d ISPs, want %d", len(isps), cfg.NumISPs)
				}
			}
			b.ReportMetric(float64(cfg.NumISPs)*float64(b.N)/b.Elapsed().Seconds(), "isps/s")
		})
	}
}

// BenchmarkRunnerWorkers measures the concurrent pair-runner's
// experiment throughput (ISP pairs negotiated per second) at 1, 2, and
// GOMAXPROCS workers, so later PRs have a perf trajectory for the
// parallel layer. Every worker count produces identical results; only
// wall-clock changes.
func BenchmarkRunnerWorkers(b *testing.B) {
	ds := dataset(b)
	// Warm the shared routing-table cache so the benchmark measures
	// negotiation throughput, not one-time Dijkstra cost.
	if _, err := experiments.Distance(ds, distanceOpts); err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		counts = append(counts, p)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opt := distanceOpts
			opt.Workers = w
			pairs := 0
			for i := 0; i < b.N; i++ {
				res, err := experiments.Distance(ds, opt)
				if err != nil {
					b.Fatal(err)
				}
				pairs += res.Pairs
			}
			b.ReportMetric(float64(pairs)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// BenchmarkRunnerStream measures the streaming pipeline's experiment
// throughput (pairs/s) at 1, 2, and GOMAXPROCS workers: the same
// Distance workload as BenchmarkRunnerWorkers, but delivered through
// DistanceStream into a constant-memory digest instead of a batch
// result — so the two benchmarks bracket the cost of the streaming
// path. ReportAllocs tracks that per-pair allocation stays flat.
// Tracked across PRs in BENCH_runner.json.
func BenchmarkRunnerStream(b *testing.B) {
	ds := dataset(b)
	ds.Warm(0) // measure negotiation throughput, not Dijkstra cold start
	counts := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		counts = append(counts, p)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opt := distanceOpts
			opt.Workers = w
			b.ReportAllocs()
			pairs := 0
			for i := 0; i < b.N; i++ {
				digest := stats.NewDigest()
				err := experiments.DistanceStream(ds, opt, func(_ int, r *experiments.DistancePairResult) error {
					digest.Add(r.GainNeg)
					pairs++
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if digest.Stream.N() == 0 {
					b.Fatal("stream delivered nothing")
				}
			}
			b.ReportMetric(float64(pairs)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// BenchmarkMeshSessions measures the daemon layer's negotiation
// throughput: a 14-ISP all-pairs mesh of agentd daemons (17 pairs, 4
// epochs = 68 wire sessions per iteration) at 1, 2, and GOMAXPROCS
// concurrent sessions per agent. sessions/s is computed over the
// negotiation window only (daemon startup and Dijkstra cold start
// excluded); every bound produces identical pair outcomes, only
// wall-clock changes. Tracked across PRs in BENCH_runner.json alongside
// BenchmarkRunnerWorkers.
func BenchmarkMeshSessions(b *testing.B) {
	counts := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		counts = append(counts, p)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var sessions int64
			var window time.Duration
			for i := 0; i < b.N; i++ {
				res, err := mesh.Run(mesh.Options{
					NumISPs:  14,
					Seed:     1,
					Epochs:   4,
					Sessions: w,
					Timeout:  30 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				sessions += res.Sessions
				window += res.Elapsed
			}
			b.ReportMetric(float64(sessions)/window.Seconds(), "sessions/s")
		})
	}
}

// BenchmarkWireSession measures one wire session end to end over an
// in-memory pipe: a single initiator/responder pair renegotiating the
// same distance table, connection reused across sessions exactly as the
// daemons reuse theirs. It isolates the protocol hot path — framing,
// codec, batched proposals, per-session state — from the mesh
// scheduler, so allocs/op here is the wire layer's own budget (tracked
// in BENCH_runner.json; the buffer-reuse contract is DESIGN.md §9).
func BenchmarkWireSession(b *testing.B) {
	ds := dataset(b)
	pair := ds.DistancePairs()[0]
	s := pairsim.New(pair, ds.Cache)
	rev := s.Reverse()
	wAB := traffic.New(pair.A, pair.B, traffic.Identical, nil)
	wBA := traffic.New(pair.B, pair.A, traffic.Identical, nil)
	items := nexit.Items(wAB.Flows, wBA.Flows)
	defaults := make([]int, len(items))
	for i, it := range items {
		if it.Dir == nexit.AtoB {
			defaults[i] = s.EarlyExit(it.Flow)
		} else {
			defaults[i] = rev.EarlyExit(it.Flow)
		}
	}
	numAlts := s.NumAlternatives()

	connA, connB := net.Pipe()
	defer connA.Close()
	defer connB.Close()
	cA, cB := nexitwire.NewConn(connA), nexitwire.NewConn(connB)

	// Distance evaluators are stateless across sessions, so both sides
	// reuse one — the same shape as a daemon pair with cached
	// controllers.
	resp := &nexitwire.Responder{
		Name:     "agent-b",
		Eval:     nexit.NewDistanceEvaluator(s, nexit.SideB, 10),
		Items:    items,
		Defaults: defaults,
		NumAlts:  numAlts,
		Timeout:  30 * time.Second,
	}
	ini := &nexitwire.Initiator{
		Name:    "agent-a",
		Cfg:     nexit.DefaultDistanceConfig(),
		Eval:    nexit.NewDistanceEvaluator(s, nexit.SideA, 10),
		Timeout: 30 * time.Second,
	}

	b.ReportAllocs()
	b.ResetTimer()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			hello, err := nexitwire.AcceptHelloConn(cB, 30*time.Second)
			if err != nil {
				done <- err
				return
			}
			if _, err := resp.ServeSessionConn(cB, hello); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < b.N; i++ {
		if _, err := ini.RunConn(cA, items, defaults, numAlts); err != nil {
			b.Fatalf("initiator: %v", err)
		}
	}
	if err := <-done; err != nil {
		b.Fatalf("responder: %v", err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
}

// BenchmarkSeekEpochFromSnapshot measures crash recovery at the
// controller layer: fast-forwarding a fresh controller to epoch 200
// by full deterministic replay (SeekEpoch) versus restoring the newest
// on-disk snapshot and replaying only the tail (SeekEpochFrom,
// DESIGN.md §11). The store holds snapshots every 20 epochs up to 180,
// so the snapshot path decodes one file and replays 20 epochs where
// the full path replays 200 — recovery cost is O(epochs since the
// last snapshot), not O(controller lifetime). The acceptance bar is
// from-snapshot ≥5× the full-replay seeks/s; tracked across PRs in
// BENCH_runner.json.
func BenchmarkSeekEpochFromSnapshot(b *testing.B) {
	const (
		target   = 200
		interval = 20
		newest   = 180
	)
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 10
	cfg.Seed = 1
	isps, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pairs := topology.AllPairs(isps, 2, true)
	if len(pairs) == 0 {
		b.Fatal("no pairs")
	}
	sys := pairsim.New(pairs[0], nil)
	wl := func(epoch int) (*traffic.Workload, *traffic.Workload) {
		baseAB := traffic.New(sys.Pair.A, sys.Pair.B, traffic.Gravity, nil)
		baseBA := traffic.New(sys.Pair.B, sys.Pair.A, traffic.Gravity, nil)
		rng := runner.PairRand(1, epoch)
		return continuous.Drift(baseAB, 0.25, rng), continuous.Drift(baseBA, 0.25, rng)
	}

	// A lived controller runs to the target, persisting a snapshot every
	// interval epochs but none past the newest — exactly the on-disk
	// state a daemon killed shortly before epoch 200 leaves behind.
	store, err := snapshot.NewStore(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	lived := continuous.New(sys, 10)
	for epoch := 0; epoch < target; epoch++ {
		if _, err := lived.Epoch(wl(epoch)); err != nil {
			b.Fatal(err)
		}
		if idx := lived.EpochIndex(); idx%interval == 0 && idx <= newest {
			if err := store.Save("bench", lived.Snapshot()); err != nil {
				b.Fatal(err)
			}
		}
	}
	src := store.Peer("bench")

	// Both recovery paths must land on the lived controller's exact
	// state before their cost is worth comparing.
	full := continuous.New(sys, 10)
	if err := full.SeekEpoch(target, wl); err != nil {
		b.Fatal(err)
	}
	fast := continuous.New(sys, 10)
	if restored, err := fast.SeekEpochFrom(target, wl, src); err != nil {
		b.Fatal(err)
	} else if restored != newest {
		b.Fatalf("restored from epoch %d, want %d", restored, newest)
	}
	if want := lived.Snapshot(); !reflect.DeepEqual(full.Snapshot(), want) ||
		!reflect.DeepEqual(fast.Snapshot(), want) {
		b.Fatal("recovery paths diverged from the lived controller")
	}

	b.Run("full-replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := continuous.New(sys, 10)
			if err := c.SeekEpoch(target, wl); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "seeks/s")
	})
	b.Run("from-snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := continuous.New(sys, 10)
			if restored, err := c.SeekEpochFrom(target, wl, src); err != nil {
				b.Fatal(err)
			} else if restored != newest {
				b.Fatalf("restored from epoch %d, want %d", restored, newest)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "seeks/s")
	})
}

// BenchmarkExtraScalability regenerates the §6 claim that negotiating
// only the biggest flows retains most of the benefit.
func BenchmarkExtraScalability(b *testing.B) {
	ds := dataset(b)
	opt := distanceOpts
	opt.MaxPairs = 10
	var res *experiments.ScalabilityResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Scalability(ds, opt, []float64{0.5, 1.0}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.FlowShare[0], "%flows-for-half-the-traffic")
	b.ReportMetric(100*res.GainShare[0], "%gain-retained-at-half-traffic")
}

// BenchmarkExtraDestinationBased regenerates footnote 2: negotiation
// works under destination-based routing too.
func BenchmarkExtraDestinationBased(b *testing.B) {
	ds := dataset(b)
	opt := distanceOpts
	opt.MaxPairs = 10
	var res *experiments.DestinationResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.DestinationBased(ds, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(median(res.GainSrcDst), "src-dst-median-%gain")
	b.ReportMetric(median(res.GainDstOnly), "dst-only-median-%gain")
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
	var res *experiments.StabilityResult
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = experiments.Stability(ds, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*float64(res.Oscillated)/float64(res.FailureCases), "%cases-oscillating")
	b.ReportMetric(median(res.ReactiveWorst), "reactive-worst-MEL-median")
	b.ReportMetric(median(res.NegotiatedWorst), "negotiated-worst-MEL-median")
}
