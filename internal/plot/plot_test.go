package plot

import (
	"bytes"
	"encoding/json"
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

// streamLines replays runStreaming's emission for the three figure
// experiments: one envelope per record, one summary line (with
// digests) per experiment — the NDJSON a `nexitsim -stream -fig all`
// run writes for those experiments.
func streamLines(t *testing.T, ds *experiments.Dataset, opt experiments.Options, bopt experiments.BandwidthOptions) [][]byte {
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
	var lines [][]byte
	emit := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b)
	}
	emitSummary := func(exp string, n int, digests map[string]*stats.Digest) {
		s := summary{Experiment: exp, Results: n, Series: map[string]string{}, Digests: digests}
		for name, d := range digests {
			s.Series[name] = d.Summary()
		}
		emit(s)
	}

	neg, opt2 := stats.NewDigest(), stats.NewDigest()
	n := 0
	err := experiments.DistanceStream(ds, opt, func(idx int, r *experiments.DistancePairResult) error {
		neg.Add(r.GainNeg)
		opt2.Add(r.GainOpt)
		n++
		emit(envelope{Experiment: "distance", Index: idx, Data: r})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	emitSummary("distance", n, map[string]*stats.Digest{"gain_negotiated": neg, "gain_optimal": opt2})

	upNeg, downNeg := stats.NewDigest(), stats.NewDigest()
	cases, err := experiments.BandwidthStream(ds, bopt, func(idx int, r *experiments.BandwidthCaseResult) error {
		upNeg.Add(r.UpNeg)
		downNeg.Add(r.DownNeg)
		emit(envelope{Experiment: "bandwidth", Index: idx, Data: r})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	emitSummary("bandwidth", cases, map[string]*stats.Digest{"up_negotiated": upNeg, "down_negotiated": downNeg})

	truthful, cheat := stats.NewDigest(), stats.NewDigest()
	n = 0
	err = experiments.DistanceCheatStream(ds, opt, func(idx int, r *experiments.CheatPairResult) error {
		truthful.Add(r.TotalTruthful)
		cheat.Add(r.TotalCheat)
		n++
		emit(envelope{Experiment: "distance-cheat", Index: idx, Data: r})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	emitSummary("distance-cheat", n, map[string]*stats.Digest{"total_truthful": truthful, "total_cheat": cheat})
	return lines
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
// (GridCDF == CDF.Series on the fixed axes), same summary lines, same
// decoration lines (integer counts through the same arithmetic). Each
// single-figure selection renders its own sections of the whole.
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
	for _, fig := range []string{"4", "5", "6", "7", "8", "9", "10", "11"} {
		one := render(t, exact, fig)
		if !strings.HasPrefix(one, "\n=== Figure "+fig) {
			t.Fatalf("-fig %s renders %.40q", fig, one)
		}
		pieces.WriteString(one)
	}
	diffLine(t, "figures one by one vs all", pieces.String(), all)
	if got := render(t, exact, "extras"); got != "" {
		t.Fatalf("-fig extras renders figure sections: %.60q", got)
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
