package experiments

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// smallDataset generates a reduced dataset so tests stay fast.
func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 18
	ds, err := Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestInventory(t *testing.T) {
	ds := smallDataset(t)
	inv := ds.Inventory()
	if !strings.Contains(inv, "ISPs: 18") {
		t.Errorf("inventory = %q", inv)
	}
}

func TestDistanceExperiment(t *testing.T) {
	ds := smallDataset(t)
	records := distanceRecords(t, ds, Options{MaxPairs: 12})
	var neg, opt, indNeg []float64
	flows := 0
	for i, r := range records {
		// The optimal is a true optimum: no method may beat it.
		if r.GainNeg > r.GainOpt+1e-9 {
			t.Errorf("pair %d: negotiated gain %.3f exceeds optimal %.3f", i, r.GainNeg, r.GainOpt)
		}
		if r.GainPareto > r.GainOpt+1e-9 || r.GainBothBetter > r.GainOpt+1e-9 {
			t.Errorf("pair %d: flow-local strategy beats the optimum", i)
		}
		// Negotiated total gain is never negative (defaults are always
		// available).
		if r.GainNeg < -1e-9 {
			t.Errorf("pair %d: negotiated total gain %.3f negative", i, r.GainNeg)
		}
		if len(r.FlowGainNeg) != len(r.FlowGainOpt) {
			t.Fatalf("pair %d: %d negotiated flow samples, %d optimal", i, len(r.FlowGainNeg), len(r.FlowGainOpt))
		}
		neg = append(neg, r.GainNeg)
		opt = append(opt, r.GainOpt)
		indNeg = append(indNeg, r.IndNegA, r.IndNegB)
		flows += len(r.FlowGainNeg)
	}
	// Paper §5.1 headline: negotiation captures most of the optimal
	// gain. Check the aggregate shape: median negotiated gain at least
	// half the median optimal gain.
	negCDF, optCDF := stats.NewCDF(neg), stats.NewCDF(opt)
	if optCDF.Median() > 0.5 && negCDF.Median() < 0.4*optCDF.Median() {
		t.Errorf("negotiated median %.2f%% far below optimal median %.2f%%",
			negCDF.Median(), optCDF.Median())
	}
	// Individual ISPs essentially never lose under negotiation (paper
	// Figure 4b); allow a tiny numerical tolerance.
	if worst := stats.NewCDF(indNeg).Quantile(0); worst < -1.0 {
		t.Errorf("an ISP lost %.2f%% under negotiation", -worst)
	}
	if flows == 0 {
		t.Fatal("no flow-level samples")
	}
}

func TestDistanceFlowLocalWeaker(t *testing.T) {
	// Figure 5's point: flow-local strategies achieve much less than
	// negotiation. Compare means over the sample.
	ds := smallDataset(t)
	var neg, both []float64
	for _, r := range distanceRecords(t, ds, Options{MaxPairs: 12}) {
		neg = append(neg, r.GainNeg)
		both = append(both, r.GainBothBetter)
	}
	if n, b := stats.NewCDF(neg).Mean(), stats.NewCDF(both).Mean(); b > n+1e-9 {
		t.Errorf("flow-both-better mean %.3f exceeds negotiated %.3f", b, n)
	}
}

func TestDistanceCheatExperiment(t *testing.T) {
	ds := smallDataset(t)
	// 12+ pairs: the cheating-backfires direction is a population claim
	// and single-digit subsets can sample against it.
	var truthful, cheat []float64
	for _, r := range cheatRecords(t, ds, Options{MaxPairs: 12}) {
		truthful = append(truthful, r.TotalTruthful)
		cheat = append(cheat, r.TotalCheat)
	}
	// Figure 10's point: cheating reduces the total gain.
	if tm, cm := stats.NewCDF(truthful).Mean(), stats.NewCDF(cheat).Mean(); cm > tm+1e-9 {
		t.Errorf("cheating increased mean total gain: %.3f > %.3f", cm, tm)
	}
}

func TestBandwidthExperiment(t *testing.T) {
	ds := smallDataset(t)
	records := bandwidthRecords(t, ds, BandwidthOptions{
		Options:     Options{MaxPairs: 8},
		Workload:    traffic.Gravity,
		MaxFailures: 40,
	})
	// Per-ISP MEL ratios can legitimately dip below 1 (the LP minimizes
	// the global worst link, so one ISP's realized MEL need not be
	// individually minimal), but they cannot be wildly below, and in
	// aggregate the default should be clearly worse than negotiated.
	var upDef, upNeg, downDef, downNeg []float64
	for i, r := range records {
		for _, x := range []float64{r.UpDef, r.UpNeg, r.DownDef, r.DownNeg} {
			if x < 0 {
				t.Errorf("case %d: negative MEL ratio %.6f", i, x)
			}
		}
		upDef, upNeg = append(upDef, r.UpDef), append(upNeg, r.UpNeg)
		downDef, downNeg = append(downDef, r.DownDef), append(downNeg, r.DownNeg)
	}
	// Figure 7's headline: negotiated MELs cluster nearer the optimum
	// than default MELs. Compare means over the sample (individual
	// failure cases are noisy).
	if n, d := stats.NewCDF(upNeg).Mean(), stats.NewCDF(upDef).Mean(); n > d+0.05 {
		t.Errorf("negotiated upstream mean ratio %.3f worse than default %.3f", n, d)
	}
	if n, d := stats.NewCDF(downNeg).Mean(), stats.NewCDF(downDef).Mean(); n > d+0.05 {
		t.Errorf("negotiated downstream mean ratio %.3f worse than default %.3f", n, d)
	}
}

func TestBandwidthAlternateModels(t *testing.T) {
	// The paper reports qualitatively similar results under alternate
	// workload/capacity models; here we just verify the drivers run
	// (streamRecords fails the test on an empty stream).
	ds := smallDataset(t)
	for _, w := range []traffic.Model{traffic.Identical, traffic.UniformRandom} {
		bandwidthRecords(t, ds, BandwidthOptions{
			Options:     Options{MaxPairs: 2},
			Workload:    w,
			MaxFailures: 4,
		})
	}
	bandwidthRecords(t, ds, BandwidthOptions{
		Options:        Options{MaxPairs: 2},
		MaxFailures:    4,
		UseFortzThorup: true,
	})
}

func TestPreferenceRangeAblation(t *testing.T) {
	ds := smallDataset(t)
	bounds := []int{1, 10}
	rs := streamRecords(t, func(sink func(int, *AblationPairResult) error) error {
		return AblationStream(ds, Options{MaxPairs: 6}, bounds, sink)
	})
	// The ablation's P=10 gains are DistanceStream's negotiated gains:
	// the same pairs, workloads and negotiation, one bound at a time.
	dist := distanceRecords(t, ds, Options{MaxPairs: 6})
	if len(dist) != len(rs) {
		t.Fatalf("ablation streamed %d pairs, distance %d", len(rs), len(dist))
	}
	for i, r := range rs {
		if r.Pair != dist[i].Pair || r.GainNeg[1] != dist[i].GainNeg {
			t.Fatalf("pair %d: ablation %s P=10 gain %v, distance %s %v",
				i, r.Pair, r.GainNeg[1], dist[i].Pair, dist[i].GainNeg)
		}
	}
	// More preference classes can only help (weakly) in aggregate; allow
	// small sampling noise.
	p1 := upperMedian(column(rs, func(r *AblationPairResult) float64 { return r.GainNeg[0] }))
	p10 := upperMedian(column(rs, func(r *AblationPairResult) float64 { return r.GainNeg[1] }))
	if p1 > p10+2.0 {
		t.Errorf("P=1 median gain %.3f much higher than P=10 %.3f", p1, p10)
	}
}

func TestSelectPairs(t *testing.T) {
	ds := smallDataset(t)
	pairs := ds.DistancePairs()
	if len(pairs) < 3 {
		t.Skip("dataset too small")
	}
	sub := selectPairs(pairs, Options{MaxPairs: 2, Seed: 9})
	if len(sub) != 2 {
		t.Fatalf("got %d pairs, want 2", len(sub))
	}
	sub2 := selectPairs(pairs, Options{MaxPairs: 2, Seed: 9})
	if sub[0] != sub2[0] || sub[1] != sub2[1] {
		t.Error("subsampling not deterministic")
	}
	all := selectPairs(pairs, Options{MaxPairs: 0})
	if len(all) != len(pairs) {
		t.Error("MaxPairs=0 should return all pairs")
	}
}
