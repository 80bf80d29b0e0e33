// Package plot folds the paper's figure records into the figure
// tables, and renders live mesh progress from agentd status snapshots —
// the analysis half of the streaming pipeline (DESIGN.md §10). One
// Fold renders Figures 4–11 for both binaries: nexitsim's figure mode
// feeds it the records its drivers stream, nexitplot the same records
// parsed back from nexitsim -stream NDJSON.
//
// The two differ only in how a curve holds its samples. An exact fold
// (NewExactFold) keeps them, so every summary line is the batch CDF's.
// A bounded fold (NewFold) is constant-memory: every curve is an online
// fixed-grid CDF (the figure axes are fixed per panel) plus a digest
// for the summary line, so a fold over a million records holds the same
// few kilobytes as a fold over ten. Its tables equal the exact ones at
// any scale; its summary lines do while a curve's digest sketch is
// uncompacted (n <= 4096), and past that carry sketch quantiles.
//
// Because GridCDF counts are integers and digest sketches canonicalize
// before rendering, folding shards of a run in any order produces the
// same bytes as folding the whole run — the merge-parity contract CI
// pins.
package plot

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// curve is one figure line: its table points and its summary line.
type curve interface {
	stats.SeriesSource
	add(v float64)
	summary() string
	mean() float64
}

// exactCurve keeps every sample and reads them through one CDF.
type exactCurve struct {
	samples []float64
	cdf     *stats.CDF // built on first read, dropped by add
}

func (c *exactCurve) add(v float64) {
	c.samples = append(c.samples, v)
	c.cdf = nil
}

func (c *exactCurve) sorted() *stats.CDF {
	if c.cdf == nil {
		c.cdf = stats.NewCDF(c.samples)
	}
	return c.cdf
}

func (c *exactCurve) Series(min, max float64, n int) []stats.Point {
	return c.sorted().Series(min, max, n)
}
func (c *exactCurve) summary() string { return stats.Summary(c.sorted()) }
func (c *exactCurve) mean() float64   { return c.sorted().Mean() }

// boundedCurve pairs the two constant-memory views of one figure line:
// the grid CDF renders the table, the digest renders the summary line.
type boundedCurve struct {
	grid *stats.GridCDF
	dig  *stats.Digest
}

func (c *boundedCurve) add(v float64) {
	c.grid.Add(v)
	c.dig.Add(v)
}

func (c *boundedCurve) Series(min, max float64, n int) []stats.Point {
	return c.grid.Series(min, max, n)
}
func (c *boundedCurve) summary() string { return c.dig.StableSummary() }
func (c *boundedCurve) mean() float64   { return c.dig.StableMean() }

// summaryAgg merges one experiment's streamed summary lines across
// shards: digests merge exactly; the legacy series strings only
// survive when a single shard contributed them.
type summaryAgg struct {
	results int
	lines   int
	digests map[string]*stats.Digest
	raw     map[string]string
}

// Fold is the figure accumulator. Feed it records directly (the Add
// methods are the drivers' sinks) or as NDJSON lines (records and
// summary lines, from one run or from many shards of the same run) via
// AddLine or ReadLines, then Render the figure tables.
type Fold struct {
	points   int
	newCurve func(min, max float64) curve
	curves   map[string]curve

	distPairs  int
	indLosers  int
	indN       int
	flowN      int
	flowLE20   int
	flowLE50   int
	bwCases    int
	uniLE2     int
	cheatPairs int
	deltaLEneg int

	summaries map[string]*summaryAgg
	// Unknown counts lines for experiments this fold does not
	// understand (newer producers); they are skipped, not fatal.
	Unknown int
}

// NewFold returns an empty constant-memory fold rendering n-point
// series (nexitsim's -points; the grids are built per-axis on first
// use, so n is fixed for the fold's lifetime).
func NewFold(n int) *Fold {
	return newFold(n, func(min, max float64) curve {
		return &boundedCurve{grid: stats.NewGridCDF(min, max, n), dig: stats.NewDigest()}
	})
}

// NewExactFold returns an empty fold rendering n-point series whose
// curves keep every sample, so its summary lines are exact at any
// scale.
func NewExactFold(n int) *Fold {
	return newFold(n, func(float64, float64) curve { return &exactCurve{} })
}

func newFold(n int, newCurve func(min, max float64) curve) *Fold {
	return &Fold{
		points:    n,
		newCurve:  newCurve,
		curves:    map[string]curve{},
		summaries: map[string]*summaryAgg{},
	}
}

func (f *Fold) curve(key string, min, max float64) curve {
	c, ok := f.curves[key]
	if !ok {
		c = f.newCurve(min, max)
		f.curves[key] = c
	}
	return c
}

// ndjsonLine is the superset of the two line shapes nexitsim emits: a
// record envelope (Data set) or an experiment summary (Data absent).
type ndjsonLine struct {
	Experiment string                   `json:"experiment"`
	Data       json.RawMessage          `json:"data"`
	Results    int                      `json:"results"`
	Series     map[string]string        `json:"series"`
	Digests    map[string]*stats.Digest `json:"digests"`
}

// ReadLines folds every NDJSON line of r. Call once per shard file;
// order across shards does not matter.
func (f *Fold) ReadLines(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if err := f.AddLine(sc.Bytes()); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return sc.Err()
}

// AddLine folds one NDJSON line (a record envelope or a summary line).
// Blank lines are ignored.
func (f *Fold) AddLine(line []byte) error {
	trimmed := false
	for _, b := range line {
		if b != ' ' && b != '\t' && b != '\r' {
			trimmed = true
			break
		}
	}
	if !trimmed {
		return nil
	}
	var l ndjsonLine
	if err := json.Unmarshal(line, &l); err != nil {
		return err
	}
	if l.Data == nil {
		return f.addSummary(&l)
	}
	switch l.Experiment {
	case "distance":
		var r experiments.DistancePairResult
		if err := json.Unmarshal(l.Data, &r); err != nil {
			return err
		}
		return f.AddDistance(0, &r)
	case "bandwidth":
		var r experiments.BandwidthCaseResult
		if err := json.Unmarshal(l.Data, &r); err != nil {
			return err
		}
		return f.AddBandwidth(0, &r)
	case "distance-cheat":
		var r experiments.CheatPairResult
		if err := json.Unmarshal(l.Data, &r); err != nil {
			return err
		}
		return f.AddCheat(0, &r)
	case "destination", "scalability", "stability":
		// These records only feed their summary digests today; the
		// figure-mode extras have no fixed-axis panels to rebuild.
	default:
		f.Unknown++
	}
	return nil
}

func (f *Fold) addSummary(l *ndjsonLine) error {
	for name, d := range l.Digests {
		if d == nil {
			return fmt.Errorf("%s summary: digest %q is null", l.Experiment, name)
		}
	}
	agg, ok := f.summaries[l.Experiment]
	if !ok {
		agg = &summaryAgg{digests: map[string]*stats.Digest{}, raw: map[string]string{}}
		f.summaries[l.Experiment] = agg
	}
	agg.results += l.Results
	agg.lines++
	for name, d := range l.Digests {
		if have, ok := agg.digests[name]; ok {
			have.Merge(d)
		} else {
			agg.digests[name] = d
		}
	}
	for name, s := range l.Series {
		agg.raw[name] = s
	}
	return nil
}

// AddDistance folds one distance record (Figures 4, 5 and 6). Its
// signature is DistanceStream's sink's.
func (f *Fold) AddDistance(_ int, r *experiments.DistancePairResult) error {
	f.distPairs++
	f.curve("4a.negotiated", 0, 15).add(r.GainNeg)
	f.curve("4a.optimal", 0, 15).add(r.GainOpt)
	ind := f.curve("4b.negotiated", -20, 40)
	ind.add(r.IndNegA)
	ind.add(r.IndNegB)
	opt := f.curve("4b.optimal", -20, 40)
	for _, g := range [2]float64{r.IndOptA, r.IndOptB} {
		opt.add(g)
		f.indN++
		if g < 0 {
			f.indLosers++
		}
	}
	f.curve("5.both-better", 0, 15).add(r.GainBothBetter)
	f.curve("5.pareto", 0, 15).add(r.GainPareto)
	flowNeg := f.curve("6.negotiated", 0, 60)
	for _, g := range r.FlowGainNeg {
		flowNeg.add(g)
		f.flowN++
		if g <= 20 {
			f.flowLE20++
		}
		if g <= 50 {
			f.flowLE50++
		}
	}
	flowOpt := f.curve("6.optimal", 0, 60)
	for _, g := range r.FlowGainOpt {
		flowOpt.add(g)
	}
	return nil
}

// AddBandwidth folds one failure-case record (Figures 7, 8, 9 and 11).
// Its signature is BandwidthStream's sink's.
func (f *Fold) AddBandwidth(_ int, r *experiments.BandwidthCaseResult) error {
	f.bwCases++
	f.curve("7.up.negotiated", 0, 6).add(r.UpNeg)
	f.curve("7.up.default", 0, 6).add(r.UpDef)
	f.curve("7.down.negotiated", 0, 6).add(r.DownNeg)
	f.curve("7.down.default", 0, 6).add(r.DownDef)
	f.curve("8.unilateral", 1, 6).add(r.UnilateralDownRatio)
	if r.UnilateralDownRatio <= 2 {
		f.uniLE2++
	}
	f.curve("9.up.negotiated", 0, 6).add(r.DiverseUpNeg)
	f.curve("9.up.default", 0, 6).add(r.UpDef)
	f.curve("9.down.gain", 0, 80).add(r.DiverseDownGain)
	f.curve("11.up.cheat", 0, 6).add(r.CheatUp)
	f.curve("11.down.cheat", 0, 6).add(r.CheatDown)
	return nil
}

// AddCheat folds one distance-cheating record (Figure 10). Its
// signature is DistanceCheatStream's sink's.
func (f *Fold) AddCheat(_ int, r *experiments.CheatPairResult) error {
	f.cheatPairs++
	f.curve("10a.truthful", 0, 15).add(r.TotalTruthful)
	f.curve("10a.cheat", 0, 15).add(r.TotalCheat)
	ind := f.curve("10b.truthful", 0, 15)
	ind.add(r.IndTruthfulA)
	ind.add(r.IndTruthfulB)
	f.curve("10b.cheater", 0, 15).add(r.IndCheater)
	f.curve("10b.victim", 0, 15).add(r.IndVictim)
	f.curve("10.delta", 0, 15).add(r.CheaterDelta)
	if r.CheaterDelta <= -1e-9 {
		f.deltaLEneg++
	}
	return nil
}

// frac reproduces stats.CDF.At's arithmetic from an online count, so
// the decoration lines under the tables are the batch CDF's bit for
// bit in either fold: At(x) = count(<= x)/n, the fraction above x is 1 - At(x).
func frac(le, n int) float64 { return float64(le) / float64(n) }

// Render writes the sections of the figures fig selects ("4" to "11",
// or "all") that the folded records carry — the figure tables, each
// curve's summary line and the decoration lines, as nexitsim's figure
// mode prints them — followed by the merged per-experiment summary
// lines of any folded summary records.
func (f *Fold) Render(w io.Writer, fig string) error {
	bw := bufio.NewWriter(w)
	sel := func(n string) bool { return fig == "all" || fig == n }
	section := func(title string) { fmt.Fprintf(bw, "\n=== %s ===\n", title) }
	series := func(xLabel string, min, max float64, keys map[string]string, order []string) {
		curves := map[string]curve{}
		for name, key := range keys {
			curves[name] = f.curve(key, min, max)
		}
		fmt.Fprint(bw, stats.FormatSeries(xLabel, min, max, f.points, curves, order))
		for _, name := range order {
			fmt.Fprintf(bw, "  %s: %s\n", name, curves[name].summary())
		}
	}

	if f.distPairs > 0 && sel("4") {
		section("Figure 4a — distance: total gain over default routing (CDF of ISP pairs)")
		fmt.Fprintf(bw, "pairs: %d\n", f.distPairs)
		series("% gain", 0, 15, map[string]string{
			"negotiated": "4a.negotiated", "optimal": "4a.optimal",
		}, []string{"negotiated", "optimal"})

		section("Figure 4b — distance: individual ISP gain (CDF of ISPs)")
		series("% gain", -20, 40, map[string]string{
			"negotiated": "4b.negotiated", "optimal": "4b.optimal",
		}, []string{"negotiated", "optimal"})
		fmt.Fprintf(bw, "ISPs losing under global optimum: %d/%d (paper: roughly a third)\n",
			f.indLosers, f.indN)
	}
	if f.distPairs > 0 && sel("5") {
		section("Figure 5 — flow-local strategies: total gain (CDF of ISP pairs)")
		series("% gain", 0, 15, map[string]string{
			"flow-both-better": "5.both-better", "flow-Pareto": "5.pareto",
		}, []string{"flow-both-better", "flow-Pareto"})
	}
	if f.distPairs > 0 && sel("6") {
		section("Figure 6 — distance: per-flow gain (CDF of flows, all pairs pooled)")
		series("% gain", 0, 60, map[string]string{
			"negotiated": "6.negotiated", "optimal": "6.optimal",
		}, []string{"negotiated", "optimal"})
		fmt.Fprintf(bw, "flows gaining >20%%: %.1f%%   >50%%: %.1f%% (paper: 7%% and 1%%)\n",
			100*(1-frac(f.flowLE20, f.flowN)), 100*(1-frac(f.flowLE50, f.flowN)))
	}
	if f.bwCases > 0 && sel("7") {
		section("Figure 7 — bandwidth: MEL relative to optimal after a failure (CDF of failure cases)")
		fmt.Fprintf(bw, "failure cases: %d\n", f.bwCases)
		fmt.Fprintln(bw, "upstream ISP:")
		series("load ratio", 0, 6, map[string]string{
			"negotiated": "7.up.negotiated", "default": "7.up.default",
		}, []string{"negotiated", "default"})
		fmt.Fprintln(bw, "downstream ISP:")
		series("load ratio", 0, 6, map[string]string{
			"negotiated": "7.down.negotiated", "default": "7.down.default",
		}, []string{"negotiated", "default"})
	}
	if f.bwCases > 0 && sel("8") {
		section("Figure 8 — unilateral upstream optimization: downstream MEL vs default (CDF)")
		series("load ratio", 1, 6, map[string]string{
			"upstream-optimized": "8.unilateral",
		}, []string{"upstream-optimized"})
		fmt.Fprintf(bw, "cases where downstream MEL more than doubles: %.1f%% (paper: ~10%%)\n",
			100*(1-frac(f.uniLE2, f.bwCases)))
	}
	if f.bwCases > 0 && sel("9") {
		section("Figure 9 — diverse criteria: upstream bandwidth vs downstream distance")
		fmt.Fprintln(bw, "upstream ISP (MEL ratio to optimal):")
		series("load ratio", 0, 6, map[string]string{
			"negotiated": "9.up.negotiated", "default": "9.up.default",
		}, []string{"negotiated", "default"})
		fmt.Fprintln(bw, "downstream ISP (distance gain over default):")
		series("% gain", 0, 80, map[string]string{
			"negotiated": "9.down.gain",
		}, []string{"negotiated"})
	}
	if f.cheatPairs > 0 && sel("10") {
		section("Figure 10a — cheating (distance): total gain (CDF of ISP pairs)")
		fmt.Fprintf(bw, "pairs: %d\n", f.cheatPairs)
		series("% gain", 0, 15, map[string]string{
			"both truthful": "10a.truthful", "one cheater": "10a.cheat",
		}, []string{"both truthful", "one cheater"})
		section("Figure 10b — cheating (distance): individual gain (CDF of ISPs)")
		series("% gain", 0, 15, map[string]string{
			"both truthful": "10b.truthful", "cheater": "10b.cheater", "truthful": "10b.victim",
		}, []string{"both truthful", "cheater", "truthful"})
		fmt.Fprintf(bw, "paired effect of cheating on the cheater itself: mean %+.2f%%, hurts in %.0f%% of pairs\n",
			f.curve("10.delta", 0, 15).mean(), 100*frac(f.deltaLEneg, f.cheatPairs))
	}
	if f.bwCases > 0 && sel("11") {
		section("Figure 11 — cheating (bandwidth): MEL ratio to optimal (CDF of failure cases)")
		fmt.Fprintln(bw, "upstream ISP (the cheater):")
		series("load ratio", 0, 6, map[string]string{
			"both truthful": "7.up.negotiated", "one cheater": "11.up.cheat", "default": "7.up.default",
		}, []string{"both truthful", "one cheater", "default"})
		fmt.Fprintln(bw, "downstream ISP (truthful):")
		series("load ratio", 0, 6, map[string]string{
			"both truthful": "7.down.negotiated", "one cheater": "11.down.cheat", "default": "7.down.default",
		}, []string{"both truthful", "one cheater", "default"})
	}

	if len(f.summaries) > 0 {
		section("Streaming summaries (merged across shards)")
		for _, exp := range summaryOrder(f.summaries) {
			agg := f.summaries[exp]
			fmt.Fprintf(bw, "%s: %d results\n", exp, agg.results)
			for _, name := range sortedKeys(agg.digests, agg.raw) {
				if d, ok := agg.digests[name]; ok {
					fmt.Fprintf(bw, "  %s: %s\n", name, d.StableSummary())
				} else if agg.lines == 1 {
					fmt.Fprintf(bw, "  %s: %s\n", name, agg.raw[name])
				} else {
					// Legacy shards without digests cannot merge; say so
					// instead of printing one shard's numbers as the whole.
					fmt.Fprintf(bw, "  %s: (unmergeable: shards carry no digests)\n", name)
				}
			}
		}
	}
	return bw.Flush()
}

// summaryOrder lists present experiments in nexitsim's emission order,
// then any strangers alphabetically.
func summaryOrder(m map[string]*summaryAgg) []string {
	known := []string{"distance", "bandwidth", "distance-cheat", "destination", "scalability", "stability"}
	var out []string
	seen := map[string]bool{}
	for _, k := range known {
		if _, ok := m[k]; ok {
			out = append(out, k)
			seen[k] = true
		}
	}
	var rest []string
	for k := range m {
		if !seen[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

func sortedKeys(digests map[string]*stats.Digest, raw map[string]string) []string {
	seen := map[string]bool{}
	var out []string
	for k := range digests {
		seen[k] = true
		out = append(out, k)
	}
	for k := range raw {
		if !seen[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
