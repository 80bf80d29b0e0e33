// Package plot folds the paper's figure records into the figure
// tables, and renders live mesh progress from agentd status snapshots —
// the analysis half of the streaming pipeline (DESIGN.md §10). One
// Fold renders Figures 4–11 and the extras sections (the analyses the
// paper states in its text) for both binaries: nexitsim's figure mode
// feeds it the records its drivers stream, nexitplot the same records
// parsed back from nexitsim -stream NDJSON.
//
// Every curve keeps its samples, so each table and summary line is the
// batch CDF's at any scale, and nexitplot prints nexitsim's figure-mode
// bytes. A curve sorts its samples before it is read, so folding shards
// of a run in any order is a multiset union and renders the same bytes
// as folding the whole run, the merge-parity contract CI pins. Each
// summary line still states its experiment's record count; Render
// refuses a fold whose records fall short of or exceed it, AddLine a
// record index folded twice. The price is memory linear in the samples
// folded.
package plot

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"

	"repro/internal/experiments"
	"repro/internal/stability"
	"repro/internal/stats"
)

// exactCurve keeps every sample of one figure line or summary line and
// reads them through one CDF.
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

func (c *exactCurve) summary() string { return stats.Summary(c.sorted()) }

// upperMedian is the (⌊n/2⌋+1)-th smallest of n samples, the median
// the preference-range ablation has always printed.
func upperMedian(c *stats.CDF) float64 {
	n := c.N()
	return c.Quantile((float64(n/2) + 0.5) / float64(n))
}

// Fold is the figure accumulator. Feed it records directly (the Add
// methods are the drivers' sinks) or as NDJSON lines (records and
// summary lines, from one run or from many shards of the same run) via
// AddLine or ReadLines, then Render the figure tables.
type Fold struct {
	// curves holds the figure lines and the extras' summary lines by
	// name.
	curves map[string]*exactCurve

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
	byIx         map[int]*exactCurve
	byBound      map[int]*exactCurve
	fractions    []float64
	gainShares   []*exactCurve
	flowShares   []*exactCurve
	scalPairs    int
	destPairs    int
	stabCases    int
	stabOutcomes [3]int

	// records holds the indexes of the record lines AddLine folded per
	// experiment, results sums the record counts its summary lines
	// state; Render refuses a fold where the two disagree (a lost shard,
	// a cut stream).
	records map[string]map[int]bool
	results map[string]int
	// Unknown counts lines for experiments this fold does not
	// understand (newer producers); they are skipped, not fatal.
	Unknown int
}

// seriesPoints is how many points every rendered CDF series has. One
// value serves every fold, so a figure run and the fold of its stream
// always print the same tables.
const seriesPoints = 16

// NewFold returns an empty fold.
func NewFold() *Fold {
	return &Fold{
		curves:  map[string]*exactCurve{},
		byIx:    map[int]*exactCurve{},
		byBound: map[int]*exactCurve{},
		records: map[string]map[int]bool{},
		results: map[string]int{},
	}
}

// curve returns the curve named key, made on first use.
func (f *Fold) curve(key string) *exactCurve { return curveIn(f.curves, key) }

// curveIn returns the curve in m under key, made on first use.
func curveIn[K comparable](m map[K]*exactCurve, key K) *exactCurve {
	c, ok := m[key]
	if !ok {
		c = &exactCurve{}
		m[key] = c
	}
	return c
}

// ndjsonLine is the superset of the two line shapes nexitsim emits: a
// record envelope (Data set) or an experiment summary (Data absent).
// Fields of older summary lines (series, digests) are ignored.
type ndjsonLine struct {
	Experiment string          `json:"experiment"`
	Index      int             `json:"index"`
	Data       json.RawMessage `json:"data"`
	Results    int             `json:"results"`
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
// Blank lines are ignored. A record whose index its experiment already
// folded is refused, unfolded.
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
	sink := f.sink(l.Experiment)
	switch {
	case sink == nil:
		f.Unknown++
	case l.Data == nil:
		f.results[l.Experiment] += l.Results
	case f.records[l.Experiment][l.Index]:
		return fmt.Errorf("%s: record index %d already folded", l.Experiment, l.Index)
	default:
		if err := sink(l.Data); err != nil {
			return err
		}
		if f.records[l.Experiment] == nil {
			f.records[l.Experiment] = map[int]bool{}
		}
		f.records[l.Experiment][l.Index] = true
	}
	return nil
}

// sink returns the decoder that folds one record of experiment exp, or
// nil for an experiment this fold does not understand.
func (f *Fold) sink(exp string) func(json.RawMessage) error {
	switch exp {
	case "distance":
		return decode(f.AddDistance)
	case "bandwidth":
		return decode(f.AddBandwidth)
	case "distance-cheat":
		return decode(f.AddCheat)
	case "ablation":
		return decode(f.AddAblation)
	case "destination":
		return decode(f.AddDestination)
	case "scalability":
		return decode(f.AddScalability)
	case "stability":
		return decode(f.AddStability)
	}
	return nil
}

// decode wraps an experiment's record sink as a decoder of one record
// envelope's data.
func decode[R any](sink func(int, *R) error) func(json.RawMessage) error {
	return func(data json.RawMessage) error {
		var r R
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
		return sink(0, &r)
	}
}

// AddDistance folds one distance record (Figures 4, 5 and 6). Its
// signature is DistanceStream's sink's.
func (f *Fold) AddDistance(_ int, r *experiments.DistancePairResult) error {
	f.distPairs++
	f.curve("4a.negotiated").add(r.GainNeg)
	f.curve("4a.optimal").add(r.GainOpt)
	ind := f.curve("4b.negotiated")
	ind.add(r.IndNegA)
	ind.add(r.IndNegB)
	opt := f.curve("4b.optimal")
	for _, g := range [2]float64{r.IndOptA, r.IndOptB} {
		opt.add(g)
		f.indN++
		if g < 0 {
			f.indLosers++
		}
	}
	f.curve("5.both-better").add(r.GainBothBetter)
	f.curve("5.pareto").add(r.GainPareto)
	flowNeg := f.curve("6.negotiated")
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
	flowOpt := f.curve("6.optimal")
	for _, g := range r.FlowGainOpt {
		flowOpt.add(g)
	}
	curveIn(f.byIx, r.Interconnections).add(r.GainNeg)
	f.curve("non-default").add(r.NonDefaultFraction)
	f.curve("group4").add(r.GainGroup4)
	return nil
}

// AddBandwidth folds one failure-case record (Figures 7, 8, 9 and 11).
// Its signature is BandwidthStream's sink's.
func (f *Fold) AddBandwidth(_ int, r *experiments.BandwidthCaseResult) error {
	f.bwCases++
	f.curve("7.up.negotiated").add(r.UpNeg)
	f.curve("7.up.default").add(r.UpDef)
	f.curve("7.down.negotiated").add(r.DownNeg)
	f.curve("7.down.default").add(r.DownDef)
	f.curve("8.unilateral").add(r.UnilateralDownRatio)
	if r.UnilateralDownRatio <= 2 {
		f.uniLE2++
	}
	f.curve("9.up.negotiated").add(r.DiverseUpNeg)
	f.curve("9.up.default").add(r.UpDef)
	f.curve("9.down.gain").add(r.DiverseDownGain)
	f.curve("11.up.cheat").add(r.CheatUp)
	f.curve("11.down.cheat").add(r.CheatDown)
	return nil
}

// AddCheat folds one distance-cheating record (Figure 10). Its
// signature is DistanceCheatStream's sink's.
func (f *Fold) AddCheat(_ int, r *experiments.CheatPairResult) error {
	f.cheatPairs++
	f.curve("10a.truthful").add(r.TotalTruthful)
	f.curve("10a.cheat").add(r.TotalCheat)
	ind := f.curve("10b.truthful")
	ind.add(r.IndTruthfulA)
	ind.add(r.IndTruthfulB)
	f.curve("10b.cheater").add(r.IndCheater)
	f.curve("10b.victim").add(r.IndVictim)
	f.curve("10.delta").add(r.CheaterDelta)
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
		curveIn(f.byBound, p).add(r.GainNeg[i])
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
			f.gainShares = append(f.gainShares, &exactCurve{})
			f.flowShares = append(f.flowShares, &exactCurve{})
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
	f.curve("src-dst").add(r.GainSrcDst)
	f.curve("dst-only").add(r.GainDstOnly)
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
	f.curve("reactive-worst").add(r.ReactiveWorst)
	f.curve("negotiated-worst").add(r.NegotiatedWorst)
	return nil
}

// frac reproduces stats.CDF.At's arithmetic from an online count, so
// the decoration lines under the tables are the batch CDF's bit for
// bit: At(x) = count(<= x)/n, the fraction above x is 1 - At(x).
func frac(le, n int) float64 { return float64(le) / float64(n) }

// Render writes the sections fig selects ("4" to "11", "extras" or
// "all") that the folded records carry — the figure tables, each
// curve's summary line and the decoration lines, then the extras
// sections, as nexitsim's figure mode prints them. It writes nothing
// and returns an error naming the experiment when the records AddLine
// folded for an experiment lack a summary line, or number other than
// its summary lines count: a shard is missing, or a stream was cut
// short.
func (f *Fold) Render(w io.Writer, fig string) error {
	exps := slices.Concat(slices.Collect(maps.Keys(f.results)), slices.Collect(maps.Keys(f.records)))
	slices.Sort(exps)
	for _, exp := range slices.Compact(exps) {
		n, summarized := f.results[exp]
		if have := len(f.records[exp]); !summarized {
			return fmt.Errorf("%s: %d records folded and no summary line", exp, have)
		} else if n != have {
			return fmt.Errorf("%s: summary lines count %d results, %d records folded", exp, n, have)
		}
	}
	bw := bufio.NewWriter(w)
	sel := func(n string) bool { return fig == "all" || fig == n }
	section := func(title string) { fmt.Fprintf(bw, "\n=== %s ===\n", title) }
	series := func(xLabel string, min, max float64, keys map[string]string, order []string) {
		curves := map[string]*stats.CDF{}
		for name, key := range keys {
			curves[name] = f.curve(key).sorted()
		}
		fmt.Fprint(bw, stats.FormatSeries(xLabel, min, max, seriesPoints, curves, order))
		for _, name := range order {
			fmt.Fprintf(bw, "  %s: %s\n", name, stats.Summary(curves[name]))
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
			f.curve("10.delta").sorted().Mean(), 100*frac(f.deltaLEneg, f.cheatPairs))
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
		fmt.Fprintf(bw, "  %s\n", f.curves["non-default"].summary())
		section("Extra — negotiating in 4 separate groups (§5.1 text)")
		fmt.Fprintf(bw, "  whole table: %s\n", f.curves["4a.negotiated"].summary())
		fmt.Fprintf(bw, "  4 groups:    %s\n", f.curves["group4"].summary())
	}
	if len(f.byBound) > 0 {
		section("Extra — preference range ablation (§5 text: beyond [-10,10] no gain)")
		for _, p := range slices.Sorted(maps.Keys(f.byBound)) {
			fmt.Fprintf(bw, "  P=%-3d median total gain: %.2f%%\n", p, upperMedian(f.byBound[p].sorted()))
		}
	}
	if f.scalPairs > 0 {
		section("Extra — negotiating only the biggest flows (§6 scalability)")
		fmt.Fprintf(bw, "  pairs: %d (gravity flow sizes)\n", f.scalPairs)
		for i, frac := range f.fractions {
			fmt.Fprintf(bw, "  top flows covering %3.0f%% of traffic = %4.1f%% of flows -> %3.0f%% of the full gain\n",
				100*frac, 100*f.flowShares[i].sorted().Quantile(0.5), 100*f.gainShares[i].sorted().Quantile(0.5))
		}
	}
	if f.destPairs > 0 {
		section("Extra — destination-based routing (footnote 2)")
		fmt.Fprintf(bw, "  pairs: %d; gains measured against each regime's own default\n", f.destPairs)
		fmt.Fprintf(bw, "  source-destination routing: %s\n", f.curves["src-dst"].summary())
		fmt.Fprintf(bw, "  destination-based routing:  %s\n", f.curves["dst-only"].summary())
	}
	if f.stabCases > 0 {
		section("Extra — cycles of influence under reactive unilateral routing (§1/§2.2)")
		fmt.Fprintf(bw, "  failure cases: %d\n", f.stabCases)
		fmt.Fprintf(bw, "  reactive best-response dynamics: %d converged, %d oscillated, %d exhausted\n",
			f.stabOutcomes[0], f.stabOutcomes[1], f.stabOutcomes[2])
		fmt.Fprintf(bw, "  negotiation: always terminates (by construction)\n")
		fmt.Fprintf(bw, "  reactive end-state worst MEL:   %s\n", f.curves["reactive-worst"].summary())
		fmt.Fprintf(bw, "  negotiated worst MEL:           %s\n", f.curves["negotiated-worst"].summary())
	}
}
