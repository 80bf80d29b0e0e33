package plot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func testDataset(t *testing.T) *experiments.Dataset {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 12
	ds, err := experiments.Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testOpts() (experiments.Options, experiments.BandwidthOptions) {
	// MaxPairs keeps every per-experiment digest under the
	// QuantileSketch capacity (4096 points): the byte-parity contract
	// these tests pin holds while sketches are uncompacted, and the
	// flow-level experiment pools thousands of flow samples per pair.
	opt := experiments.Options{MaxPairs: 4, Seed: 1, Workers: 2}
	return opt, experiments.BandwidthOptions{Options: opt, Workload: traffic.Gravity, MaxFailures: 8}
}

// streamLines replays runStreaming's emission: one envelope per record
// and one summary line (with digests) per experiment — the NDJSON a
// `nexitsim -stream -fig all` run writes, extras included, with every
// experiment under opt's or bopt's bounds.
func streamLines(t *testing.T, ds *experiments.Dataset, opt experiments.Options, bopt experiments.BandwidthOptions) [][]byte {
	t.Helper()
	var lines [][]byte
	emitStream(t, &lines, "distance", func(sink func(int, *experiments.DistancePairResult) error) error {
		return experiments.DistanceStream(ds, opt, sink)
	}, func(r *experiments.DistancePairResult, add func(string, float64)) {
		add("gain_negotiated", r.GainNeg)
		add("gain_optimal", r.GainOpt)
	})
	emitStream(t, &lines, "bandwidth", func(sink func(int, *experiments.BandwidthCaseResult) error) error {
		_, err := experiments.BandwidthStream(ds, bopt, sink)
		return err
	}, func(r *experiments.BandwidthCaseResult, add func(string, float64)) {
		add("up_negotiated", r.UpNeg)
		add("down_negotiated", r.DownNeg)
	})
	emitStream(t, &lines, "distance-cheat", func(sink func(int, *experiments.CheatPairResult) error) error {
		return experiments.DistanceCheatStream(ds, opt, sink)
	}, func(r *experiments.CheatPairResult, add func(string, float64)) {
		add("total_truthful", r.TotalTruthful)
		add("total_cheat", r.TotalCheat)
	})
	emitStream(t, &lines, "ablation", func(sink func(int, *experiments.AblationPairResult) error) error {
		return experiments.AblationStream(ds, opt, experiments.AblationBounds, sink)
	}, func(r *experiments.AblationPairResult, add func(string, float64)) {
		for i, p := range r.Bounds {
			add(fmt.Sprintf("gain_negotiated_p%d", p), r.GainNeg[i])
		}
	})
	emitStream(t, &lines, "destination", func(sink func(int, *experiments.DestinationPairResult) error) error {
		return experiments.DestinationStream(ds, opt, sink)
	}, func(r *experiments.DestinationPairResult, add func(string, float64)) {
		add("gain_dst_only", r.GainDstOnly)
	})
	emitStream(t, &lines, "scalability", func(sink func(int, *experiments.ScalabilityPairResult) error) error {
		return experiments.ScalabilityStream(ds, opt, experiments.ScalabilityFractions, sink)
	}, func(r *experiments.ScalabilityPairResult, add func(string, float64)) {
		add("gain_share_20pct_traffic", r.GainShares[0])
	})
	emitStream(t, &lines, "stability", func(sink func(int, *experiments.StabilityCaseResult) error) error {
		_, err := experiments.StabilityStream(ds, bopt, sink)
		return err
	}, func(r *experiments.StabilityCaseResult, add func(string, float64)) {
		add("reactive_worst_mel", r.ReactiveWorst)
	})
	return lines
}

// emitStream appends one experiment's NDJSON to lines: an envelope per
// record run delivers, then the summary line of the digests series
// fills.
func emitStream[R any](t *testing.T, lines *[][]byte, exp string, run func(sink func(int, *R) error) error,
	series func(r *R, add func(name string, v float64))) {
	t.Helper()
	type envelope struct {
		Experiment string `json:"experiment"`
		Index      int    `json:"index"`
		Data       any    `json:"data"`
	}
	type summary struct {
		Experiment string                   `json:"experiment"`
		Results    int                      `json:"results"`
		Series     map[string]string        `json:"series"`
		Digests    map[string]*stats.Digest `json:"digests,omitempty"`
	}
	emit := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		*lines = append(*lines, b)
	}
	digests := map[string]*stats.Digest{}
	add := func(name string, v float64) {
		if digests[name] == nil {
			digests[name] = stats.NewDigest()
		}
		digests[name].Add(v)
	}
	n := 0
	err := run(func(idx int, r *R) error {
		series(r, add)
		n++
		emit(envelope{Experiment: exp, Index: idx, Data: r})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := summary{Experiment: exp, Results: n, Series: map[string]string{}, Digests: digests}
	for name, d := range digests {
		s.Series[name] = d.Summary()
	}
	emit(s)
}

func render(t *testing.T, f *Fold, fig string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Render(&buf, fig); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// diffLine fails with the first line where two renderings diverge —
// far more readable than dumping both documents.
func diffLine(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s: line %d diverges:\n  got  %q\n  want %q", what, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: lengths diverge: got %d lines, want %d", what, len(g), len(w))
}

// The exact fold nexitsim's figure mode feeds straight from the drivers
// and the bounded fold nexitplot rebuilds from the NDJSON stream render
// the same bytes while every curve's sketch is uncompacted: same tables
// (GridCDF == CDF.Series on the fixed axes), same summary lines and
// medians, same decoration lines (integer counts through the same
// arithmetic). Each single-figure selection, extras included, renders
// its own sections of the whole.
func TestFoldReproducesBatchFigures(t *testing.T) {
	ds := testDataset(t)
	opt, bopt := testOpts()
	const points = 16

	exact := NewExactFold(points)
	if err := experiments.DistanceStream(ds, opt, exact.AddDistance); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.BandwidthStream(ds, bopt, exact.AddBandwidth); err != nil {
		t.Fatal(err)
	}
	if err := experiments.DistanceCheatStream(ds, opt, exact.AddCheat); err != nil {
		t.Fatal(err)
	}
	if err := experiments.AblationStream(ds, opt, experiments.AblationBounds, exact.AddAblation); err != nil {
		t.Fatal(err)
	}
	if err := experiments.DestinationStream(ds, opt, exact.AddDestination); err != nil {
		t.Fatal(err)
	}
	if err := experiments.ScalabilityStream(ds, opt, experiments.ScalabilityFractions, exact.AddScalability); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.StabilityStream(ds, bopt, exact.AddStability); err != nil {
		t.Fatal(err)
	}

	bounded := NewFold(points)
	for _, line := range streamLines(t, ds, opt, bopt) {
		// Records only: the exact fold has no summaries section.
		if bytes.Contains(line, []byte(`"data"`)) {
			if err := bounded.AddLine(line); err != nil {
				t.Fatal(err)
			}
		}
	}
	all := render(t, exact, "all")
	diffLine(t, "bounded vs exact", render(t, bounded, "all"), all)

	var pieces strings.Builder
	for _, fig := range []string{"4", "5", "6", "7", "8", "9", "10", "11", "extras"} {
		one := render(t, exact, fig)
		head := "\n=== Figure " + fig
		if fig == "extras" {
			head = "\n=== Extra — "
		}
		if !strings.HasPrefix(one, head) {
			t.Fatalf("-fig %s renders %.40q", fig, one)
		}
		pieces.WriteString(one)
	}
	diffLine(t, "figures one by one vs all", pieces.String(), all)
	if got := strings.Count(all, "\n=== Extra — "); got != 7 {
		t.Fatalf("-fig all renders %d extras sections, want 7", got)
	}
}

// Any line-split of a run folds to the same bytes as the whole run,
// shards fed in any order — the CI merge-parity contract.
func TestFoldShardParity(t *testing.T) {
	ds := testDataset(t)
	opt, bopt := testOpts()
	lines := streamLines(t, ds, opt, bopt)

	whole := NewFold(16)
	for _, line := range lines {
		if err := whole.AddLine(line); err != nil {
			t.Fatal(err)
		}
	}
	wantOut := render(t, whole, "all")
	if !strings.Contains(wantOut, "Streaming summaries") {
		t.Fatal("no summaries section; summary lines were not folded")
	}
	if got := strings.Count(wantOut, "\n=== Extra — "); got != 7 {
		t.Fatalf("whole run renders %d extras sections, want 7", got)
	}

	// Interleave NR%2, then feed the odd shard first.
	sharded := NewFold(16)
	for pass, want := range []int{1, 0} {
		_ = pass
		for i, line := range lines {
			if i%2 != want {
				continue
			}
			if err := sharded.AddLine(line); err != nil {
				t.Fatal(err)
			}
		}
	}
	diffLine(t, "sharded vs whole", render(t, sharded, "all"), wantOut)
}

// Lines from unknown experiments are skipped and counted, never fatal.
func TestFoldUnknownExperiment(t *testing.T) {
	f := NewFold(8)
	if err := f.AddLine([]byte(`{"experiment":"hyperspace","index":0,"data":{"x":1}}`)); err != nil {
		t.Fatalf("unknown experiment should not error: %v", err)
	}
	if f.Unknown != 1 {
		t.Fatalf("Unknown = %d, want 1", f.Unknown)
	}
	if err := f.AddLine([]byte(`   `)); err != nil {
		t.Fatalf("blank line should fold to nothing: %v", err)
	}
	if err := f.AddLine([]byte(`{broken`)); err == nil {
		t.Fatal("corrupt JSON must error")
	}
}

// FuzzFoldLine feeds arbitrary lines to both folds: AddLine may refuse a
// line, but neither it nor Render may panic. Any input that parses as a
// digest must survive Marshal → Unmarshal → Marshal byte-equal.
func FuzzFoldLine(f *testing.F) {
	for _, seed := range []string{
		`{"experiment":"distance","index":0,"data":{"pair":"isp0-isp1","interconnections":3,"gain_negotiated":2.5,"gain_optimal":4,"ind_negotiated_a":1,"ind_negotiated_b":-0.5,"ind_optimal_a":6,"ind_optimal_b":-2,"flow_gain_negotiated":[0,0,12.5],"flow_gain_optimal":[0,3,40]}}`,
		`{"experiment":"bandwidth","index":0,"data":{"up_default":2.1,"up_negotiated":1.2,"down_default":1.5,"down_negotiated":1,"unilateral_down_ratio":2.5,"cheat_up":1.1,"cheat_down":1.7}}`,
		`{"experiment":"distance-cheat","index":0,"data":{"total_truthful":3,"total_cheat":2,"cheater_delta":-0.25}}`,
		`{"experiment":"distance","results":2,"series":{"gain_negotiated":"n=2"},"digests":{"gain_negotiated":{"stream":{"n":2,"sum":3,"min":1,"max":2},"sketch":{"cap":4096,"compactions":0,"n":2,"points":[[1,1],[2,1]]}}}}`,
		`{"experiment":"distance","results":3,"series":{},"digests":{"gain_negotiated":{"stream":{"n":3,"sum":3,"min":1,"max":1},"sketch":{"cap":4096,"compactions":0,"n":0,"points":[]}}}}`,
		`{"experiment":"distance","results":1,"digests":{"gain_negotiated":null}}`,
		`{"stream":{"n":9,"sum":45,"min":1,"max":9},"sketch":{"cap":8,"compactions":0,"n":9,"points":[[1,1],[2,1],[3,1],[4,1],[5,1],[6,1],[7,1],[8,1],[9,1]]}}`,
		`{"experiment":"ablation","index":0,"data":{"pair":"isp0-isp1","bounds":[1,10],"gain_negotiated":[0.5,1.5]}}`,
		`{"experiment":"scalability","index":0,"data":{"pair":"isp0-isp1","fractions":[0.5,1],"gain_shares":[0.7,1],"flow_shares":[0.1,1]}}`,
		`{"experiment":"destination","index":0,"data":{"pair":"isp0-isp1","gain_src_dst":2,"gain_dst_only":1.5}}`,
		`{"experiment":"stability","index":0,"data":{"pair":"isp0-isp1","failed_interconnection":1,"outcome":1,"reactive_worst_mel":2.5,"negotiated_worst_mel":1.5}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		for _, fold := range []*Fold{NewFold(8), NewExactFold(8)} {
			_ = fold.AddLine(line)
			if err := fold.Render(io.Discard, "all"); err != nil {
				t.Fatal(err)
			}
		}

		var d stats.Digest
		if json.Unmarshal(line, &d) != nil {
			return
		}
		first, err := json.Marshal(&d)
		if err != nil {
			t.Fatalf("accepted digest does not marshal: %v", err)
		}
		var back stats.Digest
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("digest refuses its own wire form %s: %v", first, err)
		}
		second, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("digest wire form drifts:\n  %s\n  %s", first, second)
		}
	})
}
