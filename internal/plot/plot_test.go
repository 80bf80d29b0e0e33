package plot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/gen"
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
	opt := experiments.Options{MaxPairs: 4, Seed: 1, Workers: 2}
	return opt, experiments.BandwidthOptions{Options: opt, Workload: traffic.Gravity, MaxFailures: 8}
}

// streamLines replays runStreaming's emission: one envelope per record
// and one summary line per experiment counting its records — the NDJSON
// a `nexitsim -stream -fig all` run writes, extras included, with every
// experiment under opt's or bopt's bounds.
func streamLines(t *testing.T, ds *experiments.Dataset, opt experiments.Options, bopt experiments.BandwidthOptions) [][]byte {
	t.Helper()
	var lines [][]byte
	emitStream(t, &lines, "distance", func(sink func(int, *experiments.DistancePairResult) error) error {
		return experiments.DistanceStream(ds, opt, sink)
	})
	emitStream(t, &lines, "bandwidth", func(sink func(int, *experiments.BandwidthCaseResult) error) error {
		_, err := experiments.BandwidthStream(ds, bopt, sink)
		return err
	})
	emitStream(t, &lines, "distance-cheat", func(sink func(int, *experiments.CheatPairResult) error) error {
		return experiments.DistanceCheatStream(ds, opt, sink)
	})
	emitStream(t, &lines, "ablation", func(sink func(int, *experiments.AblationPairResult) error) error {
		return experiments.AblationStream(ds, opt, experiments.AblationBounds, sink)
	})
	emitStream(t, &lines, "destination", func(sink func(int, *experiments.DestinationPairResult) error) error {
		return experiments.DestinationStream(ds, opt, sink)
	})
	emitStream(t, &lines, "scalability", func(sink func(int, *experiments.ScalabilityPairResult) error) error {
		return experiments.ScalabilityStream(ds, opt, experiments.ScalabilityFractions, sink)
	})
	emitStream(t, &lines, "stability", func(sink func(int, *experiments.StabilityCaseResult) error) error {
		_, err := experiments.StabilityStream(ds, bopt, sink)
		return err
	})
	return lines
}

// emitStream appends one experiment's NDJSON to lines: an envelope per
// record run delivers, then the summary line counting them.
func emitStream[R any](t *testing.T, lines *[][]byte, exp string, run func(sink func(int, *R) error) error) {
	t.Helper()
	type envelope struct {
		Experiment string `json:"experiment"`
		Index      int    `json:"index"`
		Data       any    `json:"data"`
	}
	type summary struct {
		Experiment string `json:"experiment"`
		Results    int    `json:"results"`
	}
	emit := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		*lines = append(*lines, b)
	}
	n := 0
	err := run(func(idx int, r *R) error {
		n++
		emit(envelope{Experiment: exp, Index: idx, Data: r})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	emit(summary{Experiment: exp, Results: n})
}

// foldLines folds lines into a fresh fold.
func foldLines(t *testing.T, lines [][]byte) *Fold {
	t.Helper()
	f := NewFold(16)
	for _, line := range lines {
		if err := f.AddLine(line); err != nil {
			t.Fatal(err)
		}
	}
	return f
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

// The nexitsim/nexitplot contract, in process: a fold fed straight by
// the drivers (nexitsim's figure mode) and a fold fed the same records
// as NDJSON lines through AddLine (nexitplot over -stream) render the
// same bytes. Each single-figure selection, extras included, renders
// its own sections of the whole.
func TestFoldReproducesBatchFigures(t *testing.T) {
	ds := testDataset(t)
	opt, bopt := testOpts()

	direct := NewFold(16)
	if err := experiments.DistanceStream(ds, opt, direct.AddDistance); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.BandwidthStream(ds, bopt, direct.AddBandwidth); err != nil {
		t.Fatal(err)
	}
	if err := experiments.DistanceCheatStream(ds, opt, direct.AddCheat); err != nil {
		t.Fatal(err)
	}
	if err := experiments.AblationStream(ds, opt, experiments.AblationBounds, direct.AddAblation); err != nil {
		t.Fatal(err)
	}
	if err := experiments.DestinationStream(ds, opt, direct.AddDestination); err != nil {
		t.Fatal(err)
	}
	if err := experiments.ScalabilityStream(ds, opt, experiments.ScalabilityFractions, direct.AddScalability); err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.StabilityStream(ds, bopt, direct.AddStability); err != nil {
		t.Fatal(err)
	}

	all := render(t, direct, "all")
	diffLine(t, "lines vs direct", render(t, foldLines(t, streamLines(t, ds, opt, bopt)), "all"), all)

	var pieces strings.Builder
	for _, fig := range []string{"4", "5", "6", "7", "8", "9", "10", "11", "extras"} {
		one := render(t, direct, fig)
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

	wantOut := render(t, foldLines(t, lines), "all")
	if got := strings.Count(wantOut, "\n=== Extra — "); got != 7 {
		t.Fatalf("whole run renders %d extras sections, want 7", got)
	}

	// Interleave NR%2, then feed the odd shard first.
	odd, even := shard(lines, 1), shard(lines, 0)
	diffLine(t, "sharded vs whole", render(t, foldLines(t, slices.Concat(odd, even)), "all"), wantOut)
}

// shard returns the lines whose index is rem modulo 2: awk 'NR%2==...'.
func shard(lines [][]byte, rem int) [][]byte {
	var out [][]byte
	for i, line := range lines {
		if i%2 == rem {
			out = append(out, line)
		}
	}
	return out
}

// A fold short of records is refused with an error naming the
// experiment and its counts: a shard left out, a stream cut short inside
// an experiment (before its summary line), or a record lost before a
// summary line that counts it.
func TestFoldRefusesMissingRecords(t *testing.T) {
	ds := testDataset(t)
	opt, bopt := testOpts()
	lines := streamLines(t, ds, opt, bopt)
	var ends []int // the summary lines' indices
	for i, line := range lines {
		if !bytes.Contains(line, []byte(`"data"`)) {
			ends = append(ends, i)
		}
	}
	if len(ends) != 7 || ends[0] < 2 || ends[1]-ends[0] < 3 {
		t.Fatalf("summary lines at %v, want 7 after at least two records each", ends)
	}
	distance := fmt.Sprintf("distance: summary lines count %d results, %d records folded", ends[0], ends[0]-1)
	bandwidth := fmt.Sprintf("bandwidth: %d records folded and no summary line", ends[1]-ends[0]-2)
	for _, c := range []struct {
		name  string
		lines [][]byte
		want  string
	}{
		{"dropped shard", shard(lines, 0), " records folded"},
		{"truncated stream", lines[:ends[1]-1], bandwidth},
		{"lost record", slices.Concat(lines[:1], lines[2:]), distance},
	} {
		var buf bytes.Buffer
		err := foldLines(t, c.lines).Render(&buf, "all")
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Render error %v, want one containing %q", c.name, err, c.want)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: Render wrote %d bytes before refusing", c.name, buf.Len())
		}
	}
}

// A summary line of an older producer still carries the series strings
// and mergeable digests this fold no longer reads; it folds on its
// record count alone, to the same bytes, even where its digest is one
// the old fold refused.
func TestFoldAcceptsLegacySummary(t *testing.T) {
	ds := testDataset(t)
	opt, bopt := testOpts()
	lines := streamLines(t, ds, opt, bopt)
	want := render(t, foldLines(t, lines), "all")

	legacy := make([][]byte, len(lines))
	for i, line := range lines {
		legacy[i] = line
		if !bytes.Contains(line, []byte(`"data"`)) {
			legacy[i] = append(bytes.TrimSuffix(line, []byte("}")), []byte(`,"series":{"gain":"n=2 mean=1.500"},`+
				`"digests":{"gain":{"stream":{"n":2,"sum":3,"min":1,"max":2},"sketch":{"cap":4096,"compactions":0,"n":2,"points":[[1,1],[2,1]]}},"bad":null}}`)...)
		}
	}
	diffLine(t, "legacy vs counts-only summaries", render(t, foldLines(t, legacy), "all"), want)
}

// Lines from unknown experiments, records and summaries alike, are
// skipped and counted, never fatal.
func TestFoldUnknownExperiment(t *testing.T) {
	f := NewFold(8)
	for _, line := range []string{
		`{"experiment":"hyperspace","index":0,"data":{"x":1}}`,
		`{"experiment":"hyperspace","results":3}`,
	} {
		if err := f.AddLine([]byte(line)); err != nil {
			t.Fatalf("unknown experiment should not error: %v", err)
		}
	}
	if f.Unknown != 2 {
		t.Fatalf("Unknown = %d, want 2", f.Unknown)
	}
	if err := f.Render(io.Discard, "all"); err != nil {
		t.Fatalf("skipped lines must not fail Render: %v", err)
	}
	if err := f.AddLine([]byte(`   `)); err != nil {
		t.Fatalf("blank line should fold to nothing: %v", err)
	}
	if err := f.AddLine([]byte(`{broken`)); err == nil {
		t.Fatal("corrupt JSON must error")
	}
}

// FuzzFoldLine feeds arbitrary lines to the fold: AddLine may refuse a
// line and Render may refuse a fold whose records disagree with its
// summary lines, but neither may panic, and Render refuses only with
// its labelled count error. The seeds include older summary lines that
// carry digests, malformed ones too.
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
		fold := NewFold(8)
		_ = fold.AddLine(line)
		if err := fold.Render(io.Discard, "all"); err != nil && !strings.Contains(err.Error(), " records folded") {
			t.Fatalf("Render refused with an unlabelled error: %v", err)
		}
	})
}
