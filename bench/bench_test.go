package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the declarations in this package")

// benchmarkJSON is the root BENCHMARK.json, in the builder's contract's
// shape.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func declared() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: 10,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	return b
}

// TestBenchmarkJSON holds the root BENCHMARK.json to the declarations
// the tool measures with, and both to the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(declared(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the declarations in bench/; run go test ./bench -run TestBenchmarkJSON -update")
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	setup := false
	for _, d := range endToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is malformed", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric")
	}
	for _, d := range perLayer {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound != 0 {
			t.Errorf("per-layer metric %+v is malformed", d)
		}
	}
}

// names returns the sorted metric names of a result, failing on a
// repeated name, an empty unit or a unit other than the declared one.
func names(t *testing.T, res *result, defs []metricDef) []string {
	t.Helper()
	var out []string
	seen := map[string]bool{}
	for _, m := range res.Metrics {
		if seen[m.Name] {
			t.Errorf("%s: metric %s emitted twice", res.Workload, m.Name)
		}
		seen[m.Name] = true
		if unit, ok := unitOf(defs, m.Name); !ok || m.Unit == "" || m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, declared %q", res.Workload, m.Name, m.Unit, unit)
		}
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsShort runs every workload at smoke scale, untraced and
// traced, and checks the report's shape: each declared metric exactly
// once with its unit, nothing failed, spans nested.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := &config{Seed: 1, Scale: shortScale, OutDir: t.TempDir()}

			res := run(w, c, false)
			if !res.correct() || res.Ops == 0 {
				t.Fatalf("untraced: ops=%d failed=%d golden=%s errors=%v", res.Ops, res.Failed, res.Golden, res.Errors)
			}
			var want []string
			for _, d := range endToEnd {
				want = append(want, d.Name)
			}
			sort.Strings(want)
			if got := names(t, res, endToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("untraced metrics %v, want %v", got, want)
			}
			for _, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, must never be 0", m.Name, m.Value)
				}
			}
			if len(res.line().Metrics) != len(endToEnd) {
				t.Errorf("contract line carries %d metrics, want %d", len(res.line().Metrics), len(endToEnd))
			}
			untracedSHA := res.OutputSHA

			res = run(w, c, true)
			if !res.correct() || res.Ops == 0 {
				t.Fatalf("traced: ops=%d failed=%d golden=%s errors=%v", res.Ops, res.Failed, res.Golden, res.Errors)
			}
			if res.OutputSHA != untracedSHA {
				t.Errorf("traced output %s, untraced %s", res.OutputSHA, untracedSHA)
			}
			want = append([]string(nil), w.layers...)
			sort.Strings(want)
			if got := names(t, res, perLayer); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("traced metrics\n got %v\nwant %v", got, want)
			}
			if len(res.line().Metrics) != len(perLayer) {
				t.Errorf("contract line carries %d metrics, want %d", len(res.line().Metrics), len(perLayer))
			}
			checkTraceFile(t, filepath.Join(c.OutDir, w.name+".trace.json"))
		})
	}
}

// checkTraceFile reads a stored trace back and checks that spans nest:
// every child inside its parent, every self time non-negative.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Names []string
		Spans [][4]int64
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("trace holds no spans")
	}
	self := make([]int64, len(tr.Spans))
	for i, s := range tr.Spans {
		name, start, end, parent := s[0], s[1], s[2], s[3]
		if name < 0 || int(name) >= len(tr.Names) || end < start {
			t.Fatalf("span %d malformed: %v", i, s)
		}
		self[i] += end - start
		if parent >= 0 {
			p := tr.Spans[parent]
			if int(parent) >= i || start < p[1] || end > p[2] {
				t.Fatalf("span %d %v not inside its parent %v", i, s, p)
			}
			self[parent] -= end - start
		}
	}
	for i, ns := range self {
		if ns < 0 {
			t.Fatalf("span %d (%s) has self time %d ns", i, tr.Names[tr.Spans[i][0]], ns)
		}
	}
}

// TestOtherSeedIsUnpinned: a seed without a golden still has to pass the
// self-parity checks, and reports its digest as unpinned, not failed.
func TestOtherSeedIsUnpinned(t *testing.T) {
	c := &config{Seed: 2, Scale: shortScale, OutDir: t.TempDir()}
	res := run(dist65, c, true)
	if !res.correct() || res.Golden != goldenUnpinned {
		t.Fatalf("seed 2: failed=%d golden=%s errors=%v", res.Failed, res.Golden, res.Errors)
	}
	one := run(dist65, &config{Seed: 1, Scale: shortScale, OutDir: c.OutDir}, true)
	if one.OutputSHA == res.OutputSHA || one.Digest == res.Digest {
		t.Error("seeds 1 and 2 produced the same workload")
	}
}

// TestCompareGuard: ratios are printed only between results measured in
// the same environment on the same workload bytes.
func TestCompareGuard(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, doc document) string {
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	env := environment{Commit: "a", GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64", CPU: "x", NumCPU: 2, GOMAXPROCS: 2}
	res := func(env environment, digest string, v float64) *result {
		return &result{Workload: "dist65", Env: env, Seed: 1, Scale: fullScale, Digest: digest,
			Metrics: []reading{{Name: "ops_per_s", As: "pairs_per_s", Unit: "1/s", Value: v}}}
	}
	other := env
	other.Commit = "b"
	base := write("a.json", document{Env: env, Results: []*result{res(env, "d1", 100)}})

	var out bytes.Buffer
	if err := compareFiles(&out, base, write("b.json", document{Env: other, Results: []*result{res(other, "d1", 150)}})); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1.500 of base") {
		t.Errorf("same environment and digest, another commit: want a ratio, got\n%s", out.String())
	}

	oneCore := other
	oneCore.NumCPU, oneCore.GOMAXPROCS = 1, 1
	for name, doc := range map[string]document{
		"cores.json":  {Env: oneCore, Results: []*result{res(oneCore, "d1", 150)}},
		"digest.json": {Env: other, Results: []*result{res(other, "d2", 150)}},
	} {
		out.Reset()
		if err := compareFiles(&out, base, write(name, doc)); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "not comparable") || strings.Contains(out.String(), "of base") {
			t.Errorf("%s: want \"not comparable\" and no ratio, got\n%s", name, out.String())
		}
	}
}
