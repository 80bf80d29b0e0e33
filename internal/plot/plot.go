// Package plot folds the paper's figure records into the figure
// tables, and renders live mesh progress from agentd status snapshots —
// the analysis half of the streaming pipeline (DESIGN.md §10). One
// Fold renders Figures 4–11 and the extras sections (the analyses the
// paper states in its text) for both binaries: nexitsim's figure mode
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
// uncompacted (n <= 4096), and past that carry sketch quantiles; so
// do the extras' summary lines and medians.
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
	"maps"
	"slices"
	"sort"

	"repro/internal/experiments"
	"repro/internal/stability"
	"repro/internal/stats"
)

// sample is one sample set as a summary line reads it: the extras
// sections' lines and the figure curves' summary lines.
type sample interface {
	add(v float64)
	n() int
	summary() string
	quantile(q float64) float64
	mean() float64
}

// curve is one figure line: a sample set that also renders its table
// points.
type curve interface {
	sample
	stats.SeriesSource
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
func (c *exactCurve) n() int                     { return c.sorted().N() }
func (c *exactCurve) summary() string            { return stats.Summary(c.sorted()) }
func (c *exactCurve) quantile(q float64) float64 { return c.sorted().Quantile(q) }
func (c *exactCurve) mean() float64              { return c.sorted().Mean() }

// digestSample is the constant-memory sample set: one digest.
type digestSample struct{ dig *stats.Digest }

func (s digestSample) add(v float64)              { s.dig.Add(v) }
func (s digestSample) n() int                     { return int(s.dig.Stream.N()) }
func (s digestSample) summary() string            { return s.dig.StableSummary() }
func (s digestSample) quantile(q float64) float64 { return s.dig.Sketch.Quantile(q) }
func (s digestSample) mean() float64              { return s.dig.StableMean() }

// boundedCurve pairs the two constant-memory views of one figure line:
// the grid CDF renders the table, the digest renders the summary line.
type boundedCurve struct {
	grid *stats.GridCDF
	digestSample
}

func (c *boundedCurve) add(v float64) {
	c.grid.Add(v)
	c.digestSample.add(v)
}

func (c *boundedCurve) Series(min, max float64, n int) []stats.Point {
	return c.grid.Series(min, max, n)
}

// upperMedian is the (⌊n/2⌋+1)-th smallest of n samples, the median
// the preference-range ablation has always printed.
func upperMedian(s sample) float64 {
	n := s.n()
	return s.quantile((float64(n/2) + 0.5) / float64(n))
}

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
	points    int
	newCurve  func(min, max float64) curve
	newSample func() sample
	curves    map[string]curve
	samples   map[string]sample

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

	// The extras: negotiated gain by interconnection count and by
	// preference bound; the scalability sweep's fractions and, per
	// fraction, the gain and flow shares; stability outcome counts
	// (converged, oscillated, exhausted).
	byIx         map[int]sample
	byBound      map[int]sample
	fractions    []float64
	gainShares   []sample
	flowShares   []sample
	scalPairs    int
	destPairs    int
	stabCases    int
	stabOutcomes [3]int

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
		return &boundedCurve{grid: stats.NewGridCDF(min, max, n), digestSample: digestSample{stats.NewDigest()}}
	}, func() sample { return digestSample{stats.NewDigest()} })
}

// NewExactFold returns an empty fold rendering n-point series whose
// curves keep every sample, so its summary lines are exact at any
// scale.
func NewExactFold(n int) *Fold {
	return newFold(n, func(float64, float64) curve { return &exactCurve{} },
		func() sample { return &exactCurve{} })
}

func newFold(n int, newCurve func(min, max float64) curve, newSample func() sample) *Fold {
	return &Fold{
		points:    n,
		newCurve:  newCurve,
		newSample: newSample,
		curves:    map[string]curve{},
		samples:   map[string]sample{},
		byIx:      map[int]sample{},
		byBound:   map[int]sample{},
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

// sampleIn returns the sample set in m under key, made on first use.
func sampleIn[K comparable](f *Fold, m map[K]sample, key K) sample {
	s, ok := m[key]
	if !ok {
		s = f.newSample()
		m[key] = s
	}
	return s
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
		return addRecord(l.Data, f.AddDistance)
	case "bandwidth":
		return addRecord(l.Data, f.AddBandwidth)
	case "distance-cheat":
		return addRecord(l.Data, f.AddCheat)
	case "ablation":
		return addRecord(l.Data, f.AddAblation)
	case "destination":
		return addRecord(l.Data, f.AddDestination)
	case "scalability":
		return addRecord(l.Data, f.AddScalability)
	case "stability":
		return addRecord(l.Data, f.AddStability)
	}
	f.Unknown++
	return nil
}

// addRecord decodes one record envelope's data and folds it through the
// experiment's sink.
func addRecord[R any](data json.RawMessage, sink func(int, *R) error) error {
	var r R
	if err := json.Unmarshal(data, &r); err != nil {
		return err
	}
	return sink(0, &r)
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
	sampleIn(f, f.byIx, r.Interconnections).add(r.GainNeg)
	sampleIn(f, f.samples, "non-default").add(r.NonDefaultFraction)
	sampleIn(f, f.samples, "group4").add(r.GainGroup4)
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

// AddAblation folds one preference-range ablation record. Its
// signature is AblationStream's sink's.
func (f *Fold) AddAblation(_ int, r *experiments.AblationPairResult) error {
	if len(r.Bounds) != len(r.GainNeg) {
		return fmt.Errorf("ablation record %s: %d bounds, %d gains", r.Pair, len(r.Bounds), len(r.GainNeg))
	}
	for i, p := range r.Bounds {
		sampleIn(f, f.byBound, p).add(r.GainNeg[i])
	}
	return nil
}

// AddScalability folds one §6 scalability record. Its signature is
// ScalabilityStream's sink's; every record of a fold must carry the
// same fractions.
func (f *Fold) AddScalability(_ int, r *experiments.ScalabilityPairResult) error {
	if len(r.GainShares) != len(r.Fractions) || len(r.FlowShares) != len(r.Fractions) {
		return fmt.Errorf("scalability record %s: %d fractions, %d gain shares, %d flow shares",
			r.Pair, len(r.Fractions), len(r.GainShares), len(r.FlowShares))
	}
	if f.scalPairs == 0 {
		f.fractions = append([]float64(nil), r.Fractions...)
		for range r.Fractions {
			f.gainShares = append(f.gainShares, f.newSample())
			f.flowShares = append(f.flowShares, f.newSample())
		}
	} else if !slices.Equal(f.fractions, r.Fractions) {
		return fmt.Errorf("scalability record %s: fractions %v, earlier records %v", r.Pair, r.Fractions, f.fractions)
	}
	f.scalPairs++
	for i := range r.Fractions {
		f.gainShares[i].add(r.GainShares[i])
		f.flowShares[i].add(r.FlowShares[i])
	}
	return nil
}

// AddDestination folds one footnote-2 record. Its signature is
// DestinationStream's sink's.
func (f *Fold) AddDestination(_ int, r *experiments.DestinationPairResult) error {
	f.destPairs++
	sampleIn(f, f.samples, "src-dst").add(r.GainSrcDst)
	sampleIn(f, f.samples, "dst-only").add(r.GainDstOnly)
	return nil
}

// AddStability folds one reactive-routing failure case. Its signature is
// StabilityStream's sink's.
func (f *Fold) AddStability(_ int, r *experiments.StabilityCaseResult) error {
	f.stabCases++
	switch r.Outcome {
	case stability.Converged:
		f.stabOutcomes[0]++
	case stability.Oscillated:
		f.stabOutcomes[1]++
	default:
		f.stabOutcomes[2]++
	}
	sampleIn(f, f.samples, "reactive-worst").add(r.ReactiveWorst)
	sampleIn(f, f.samples, "negotiated-worst").add(r.NegotiatedWorst)
	return nil
}

// frac reproduces stats.CDF.At's arithmetic from an online count, so
// the decoration lines under the tables are the batch CDF's bit for
// bit in either fold: At(x) = count(<= x)/n, the fraction above x is 1 - At(x).
func frac(le, n int) float64 { return float64(le) / float64(n) }

// Render writes the sections fig selects ("4" to "11", "extras" or
// "all") that the folded records carry — the figure tables, each
// curve's summary line and the decoration lines, then the extras
// sections, as nexitsim's figure mode prints them — followed by the
// merged per-experiment summary lines of any folded summary records.
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

	if sel("extras") {
		f.renderExtras(bw, section)
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

// renderExtras writes the sections of the analyses the paper states in
// its text rather than in figures, each when its records were folded.
func (f *Fold) renderExtras(bw io.Writer, section func(string)) {
	if f.distPairs > 0 {
		section("Extra — negotiated gain vs number of interconnections (§5.1 text)")
		for _, k := range slices.Sorted(maps.Keys(f.byIx)) {
			fmt.Fprintf(bw, "  %2d interconnections: %s\n", k, f.byIx[k].summary())
		}
		section("Extra — fraction of flows moved off the default (§5.1 text, ~20%)")
		fmt.Fprintf(bw, "  %s\n", f.samples["non-default"].summary())
		section("Extra — negotiating in 4 separate groups (§5.1 text)")
		fmt.Fprintf(bw, "  whole table: %s\n", f.curves["4a.negotiated"].summary())
		fmt.Fprintf(bw, "  4 groups:    %s\n", f.samples["group4"].summary())
	}
	if len(f.byBound) > 0 {
		section("Extra — preference range ablation (§5 text: beyond [-10,10] no gain)")
		for _, p := range slices.Sorted(maps.Keys(f.byBound)) {
			fmt.Fprintf(bw, "  P=%-3d median total gain: %.2f%%\n", p, upperMedian(f.byBound[p]))
		}
	}
	if f.scalPairs > 0 {
		section("Extra — negotiating only the biggest flows (§6 scalability)")
		fmt.Fprintf(bw, "  pairs: %d (gravity flow sizes)\n", f.scalPairs)
		for i, frac := range f.fractions {
			fmt.Fprintf(bw, "  top flows covering %3.0f%% of traffic = %4.1f%% of flows -> %3.0f%% of the full gain\n",
				100*frac, 100*f.flowShares[i].quantile(0.5), 100*f.gainShares[i].quantile(0.5))
		}
	}
	if f.destPairs > 0 {
		section("Extra — destination-based routing (footnote 2)")
		fmt.Fprintf(bw, "  pairs: %d; gains measured against each regime's own default\n", f.destPairs)
		fmt.Fprintf(bw, "  source-destination routing: %s\n", f.samples["src-dst"].summary())
		fmt.Fprintf(bw, "  destination-based routing:  %s\n", f.samples["dst-only"].summary())
	}
	if f.stabCases > 0 {
		section("Extra — cycles of influence under reactive unilateral routing (§1/§2.2)")
		fmt.Fprintf(bw, "  failure cases: %d\n", f.stabCases)
		fmt.Fprintf(bw, "  reactive best-response dynamics: %d converged, %d oscillated, %d exhausted\n",
			f.stabOutcomes[0], f.stabOutcomes[1], f.stabOutcomes[2])
		fmt.Fprintf(bw, "  negotiation: always terminates (by construction)\n")
		fmt.Fprintf(bw, "  reactive end-state worst MEL:   %s\n", f.samples["reactive-worst"].summary())
		fmt.Fprintf(bw, "  negotiated worst MEL:           %s\n", f.samples["negotiated-worst"].summary())
	}
}

// summaryOrder lists present experiments in nexitsim's emission order,
// then any strangers alphabetically.
func summaryOrder(m map[string]*summaryAgg) []string {
	known := []string{"distance", "bandwidth", "distance-cheat", "ablation", "destination", "scalability", "stability"}
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
