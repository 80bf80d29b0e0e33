// Command nexitsim reproduces the paper's evaluation (§5): it runs the
// default, negotiated, and globally optimal routing over the synthetic
// dataset and prints each figure's CDF series as an aligned text table.
//
// Usage:
//
//	nexitsim [-fig all|4|5|6|7|8|9|10|11|extras] [-max-pairs N]
//	         [-max-failures N] [-seed N] [-points N] [-workers N]
//	         [-dataset FILE] [-isps N] [-inventory]
//	         [-stream] [-out FILE]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// Each printed block corresponds to one figure panel of the paper; the
// x-grid matches the paper's axes. Figure mode folds the records the
// streaming drivers deliver through internal/plot's renderer, the one
// nexitplot uses, with curves that keep every sample — so its summary
// lines are exact at any scale, and nexitplot over this binary's
// -stream output prints the same Figure 4–11 sections while no curve
// exceeds its digest's 4096-point sketch.
//
// With -stream (or -out), nexitsim switches to the streaming pipeline
// (DESIGN.md §8): per-pair / per-failure-case results are emitted
// incrementally as NDJSON — one {"experiment","index","data"} object
// per line, in deterministic pair order, followed by one summary line
// per experiment computed with the constant-memory accumulators in
// internal/stats. Nothing is buffered, so arbitrarily large datasets
// run in O(workers) memory. One batch-only exception: the §5
// preference-range ablation (part of figure-mode -fig extras) is a
// derived sweep of full experiment re-runs, not a per-pair stream, and
// has no streaming form.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/plot"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	var (
		fig         = flag.String("fig", "all", "figure to reproduce: all, 4, 5, 6, 7, 8, 9, 10, 11, extras")
		maxPairs    = flag.Int("max-pairs", 0, "limit ISP pairs (0 = all)")
		maxFailures = flag.Int("max-failures", 0, "limit bandwidth failure cases (0 = all)")
		seed        = flag.Int64("seed", 1, "experiment seed")
		points      = flag.Int("points", 16, "points per CDF series")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0),
			"goroutines evaluating ISP pairs (results are identical for any value)")
		dataset   = flag.String("dataset", "", "load .topo dataset instead of generating")
		isps      = flag.Int("isps", 0, "generate a dataset of N ISPs instead of the default 65")
		inventory = flag.Bool("inventory", false, "print dataset inventory and exit")
		stream    = flag.Bool("stream", false, "emit per-pair results incrementally as NDJSON instead of figure tables")
		out       = flag.String("out", "", "write streaming NDJSON to FILE (implies -stream; default stdout)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to FILE")
		memprof   = flag.String("memprofile", "", "write a heap profile to FILE at exit")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// Profiles cover the normal exit paths (including the early
		// -stream/-inventory returns); fatal() skips defers by design.
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // report live objects, not GC-collectible garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}

	ds, err := loadDataset(*dataset, *isps, *workers)
	if err != nil {
		fatal(err)
	}
	if *inventory {
		fmt.Print(ds.Inventory())
		return
	}
	// Shard the cold start (per-ISP Dijkstra) across the worker pool
	// before any experiment asks for a routing table. Only for
	// effectively-full runs: a biting -max-pairs subset touches few
	// ISPs, and warming all of them would make cold start O(dataset)
	// again — the lazy TableCache computes exactly the tables the
	// subset needs. A cap at or above the distance pair count selects
	// everything, so warm then too; the bandwidth pairs are a subset of
	// the distance pairs, so one comparison decides. The enumeration is
	// not spent: the Dataset keeps it for the drivers.
	if n := *maxPairs; n <= 0 || n >= len(ds.DistancePairs()) {
		ds.Warm(*workers)
	}

	opt := experiments.Options{MaxPairs: *maxPairs, Seed: *seed, Workers: *workers}
	bopt := experiments.BandwidthOptions{
		Options:     opt,
		Workload:    traffic.Gravity,
		MaxFailures: *maxFailures,
	}

	if *stream || *out != "" {
		w := io.Writer(os.Stdout)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			defer func() {
				if err := f.Close(); err != nil {
					fatal(err)
				}
			}()
			w = f
		}
		if err := runStreaming(w, ds, *fig, opt, bopt); err != nil {
			fatal(err)
		}
		return
	}

	// Figure mode folds the same records the streaming mode emits
	// through the renderer nexitplot uses, with exact curves.
	fold := plot.NewExactFold(*points)
	var extras *distanceExtras
	if has(*fig, "all", "4", "5", "6", "extras") {
		sink := fold.AddDistance
		if has(*fig, "all", "extras") {
			extras = &distanceExtras{byIx: map[int][]float64{}}
			sink = func(idx int, r *experiments.DistancePairResult) error {
				extras.add(r)
				return fold.AddDistance(idx, r)
			}
		}
		if err := experiments.DistanceStream(ds, opt, sink); err != nil {
			fatal(err)
		}
	}
	if has(*fig, "all", "7", "8", "9", "11") {
		if _, err := experiments.BandwidthStream(ds, bopt, fold.AddBandwidth); err != nil {
			fatal(err)
		}
	}
	if has(*fig, "all", "10") {
		if err := experiments.DistanceCheatStream(ds, opt, fold.AddCheat); err != nil {
			fatal(err)
		}
	}
	if err := fold.Render(os.Stdout, *fig); err != nil {
		fatal(err)
	}
	if extras != nil {
		printExtras(ds, extras, opt, bopt)
	}
}

// distanceExtras collects the distance records' samples the §5.1 text
// analyses summarize.
type distanceExtras struct {
	byIx       map[int][]float64 // negotiated total gain by interconnection count
	nonDefault []float64
	whole      []float64 // negotiated total gain, whole table
	group4     []float64
}

func (e *distanceExtras) add(r *experiments.DistancePairResult) {
	e.byIx[r.Interconnections] = append(e.byIx[r.Interconnections], r.GainNeg)
	e.nonDefault = append(e.nonDefault, r.NonDefaultFraction)
	e.whole = append(e.whole, r.GainNeg)
	e.group4 = append(e.group4, r.GainGroup4)
}

// extrasFractions is the §6 scalability sweep both extras modes run.
var extrasFractions = []float64{0.2, 0.4, 0.6, 0.8, 1.0}

// extrasOptions bounds the extras sweeps — these renegotiate pairs
// repeatedly, so unbounded runs are capped. One definition shared by
// figure mode (printExtras) and streaming mode keeps the two paths
// covering identical work for identical flags.
func extrasOptions(opt experiments.Options, bopt experiments.BandwidthOptions) (dOpt, sOpt experiments.Options, stOpt experiments.BandwidthOptions) {
	dOpt = opt // destination-based comparison
	if dOpt.MaxPairs == 0 || dOpt.MaxPairs > 100 {
		dOpt.MaxPairs = 100
	}
	sOpt = opt // scalability sweep renegotiates each pair 6 times
	if sOpt.MaxPairs == 0 || sOpt.MaxPairs > 60 {
		sOpt.MaxPairs = 60
	}
	stOpt = bopt // stability replay: respect -max-failures up to 300
	if stOpt.MaxFailures == 0 || stOpt.MaxFailures > 300 {
		stOpt.MaxFailures = 300
	}
	if stOpt.MaxPairs == 0 || stOpt.MaxPairs > 40 {
		stOpt.MaxPairs = 40
	}
	return dOpt, sOpt, stOpt
}

// printExtras reproduces the analyses the paper describes in text but
// omits from figures for space.
func printExtras(ds *experiments.Dataset, dist *distanceExtras, opt experiments.Options, bopt experiments.BandwidthOptions) {
	section("Extra — negotiated gain vs number of interconnections (§5.1 text)")
	var counts []int
	for k := range dist.byIx {
		counts = append(counts, k)
	}
	sort.Ints(counts)
	for _, k := range counts {
		fmt.Printf("  %2d interconnections: %s\n", k, stats.Summary(stats.NewCDF(dist.byIx[k])))
	}

	section("Extra — fraction of flows moved off the default (§5.1 text, ~20%)")
	fmt.Printf("  %s\n", stats.Summary(stats.NewCDF(dist.nonDefault)))

	section("Extra — negotiating in 4 separate groups (§5.1 text)")
	fmt.Printf("  whole table: %s\n", stats.Summary(stats.NewCDF(dist.whole)))
	fmt.Printf("  4 groups:    %s\n", stats.Summary(stats.NewCDF(dist.group4)))

	section("Extra — preference range ablation (§5 text: beyond [-10,10] no gain)")
	bounds := []int{1, 2, 3, 5, 10, 20, 50}
	abl, err := experiments.PreferenceRangeAblation(ds, opt, bounds)
	if err != nil {
		fatal(err)
	}
	for _, p := range bounds {
		fmt.Printf("  P=%-3d median total gain: %.2f%%\n", p, abl[p])
	}

	dOpt, sOpt, stOpt := extrasOptions(opt, bopt)

	section("Extra — negotiating only the biggest flows (§6 scalability)")
	fractions := extrasFractions
	sc, err := experiments.Scalability(ds, sOpt, fractions)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  pairs: %d (gravity flow sizes)\n", sc.Pairs)
	for i, f := range fractions {
		fmt.Printf("  top flows covering %3.0f%% of traffic = %4.1f%% of flows -> %3.0f%% of the full gain\n",
			100*f, 100*sc.FlowShare[i], 100*sc.GainShare[i])
	}

	section("Extra — destination-based routing (footnote 2)")
	db, err := experiments.DestinationBased(ds, dOpt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  pairs: %d; gains measured against each regime's own default\n", db.Pairs)
	fmt.Printf("  source-destination routing: %s\n", stats.Summary(stats.NewCDF(db.GainSrcDst)))
	fmt.Printf("  destination-based routing:  %s\n", stats.Summary(stats.NewCDF(db.GainDstOnly)))

	section("Extra — cycles of influence under reactive unilateral routing (§1/§2.2)")
	st, err := experiments.Stability(ds, stOpt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  failure cases: %d\n", st.FailureCases)
	fmt.Printf("  reactive best-response dynamics: %d converged, %d oscillated, %d exhausted\n",
		st.Converged, st.Oscillated, st.Exhausted)
	fmt.Printf("  negotiation: always terminates (by construction)\n")
	fmt.Printf("  reactive end-state worst MEL:   %s\n", stats.Summary(stats.NewCDF(st.ReactiveWorst)))
	fmt.Printf("  negotiated worst MEL:           %s\n", stats.Summary(stats.NewCDF(st.NegotiatedWorst)))
}

// runStreaming drives the figure selection through the streaming
// drivers, emitting one NDJSON object per result as it is produced and
// one constant-memory summary line per experiment. Output order is
// deterministic (the runner's ordered reducer), so two runs with the
// same flags are byte-identical regardless of -workers.
func runStreaming(w io.Writer, ds *experiments.Dataset, fig string, opt experiments.Options, bopt experiments.BandwidthOptions) error {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	enc := json.NewEncoder(bw)

	type envelope struct {
		Experiment string `json:"experiment"`
		Index      int    `json:"index"`
		Data       any    `json:"data"`
	}
	emit := func(exp string, idx int, data any) error {
		if err := enc.Encode(envelope{Experiment: exp, Index: idx, Data: data}); err != nil {
			return err
		}
		return bw.Flush() // one line out per result: truly incremental
	}
	type summary struct {
		Experiment string            `json:"experiment"`
		Results    int               `json:"results"`
		Series     map[string]string `json:"series"`
		// Digests carries each series' mergeable state, so nexitplot can
		// fold sharded runs back into one whole-run summary (run
		// elsewhere, aggregate here — DESIGN.md §10).
		Digests map[string]*stats.Digest `json:"digests,omitempty"`
	}
	emitSummary := func(exp string, n int, digests map[string]*stats.Digest) error {
		s := summary{Experiment: exp, Results: n, Series: map[string]string{}, Digests: digests}
		for name, d := range digests {
			s.Series[name] = d.Summary()
		}
		if err := enc.Encode(s); err != nil {
			return err
		}
		return bw.Flush()
	}

	if has(fig, "all", "4", "5", "6", "extras") {
		neg, opt2 := stats.NewDigest(), stats.NewDigest()
		n := 0
		err := experiments.DistanceStream(ds, opt, func(idx int, r *experiments.DistancePairResult) error {
			neg.Add(r.GainNeg)
			opt2.Add(r.GainOpt)
			n++
			return emit("distance", idx, r)
		})
		if err != nil {
			return err
		}
		if err := emitSummary("distance", n, map[string]*stats.Digest{
			"gain_negotiated": neg, "gain_optimal": opt2,
		}); err != nil {
			return err
		}
	}
	if has(fig, "all", "7", "8", "9", "11") {
		upNeg, downNeg := stats.NewDigest(), stats.NewDigest()
		cases, err := experiments.BandwidthStream(ds, bopt, func(idx int, r *experiments.BandwidthCaseResult) error {
			upNeg.Add(r.UpNeg)
			downNeg.Add(r.DownNeg)
			return emit("bandwidth", idx, r)
		})
		if err != nil {
			return err
		}
		if err := emitSummary("bandwidth", cases, map[string]*stats.Digest{
			"up_negotiated": upNeg, "down_negotiated": downNeg,
		}); err != nil {
			return err
		}
	}
	if has(fig, "all", "10") {
		truthful, cheat := stats.NewDigest(), stats.NewDigest()
		n := 0
		err := experiments.DistanceCheatStream(ds, opt, func(idx int, r *experiments.CheatPairResult) error {
			truthful.Add(r.TotalTruthful)
			cheat.Add(r.TotalCheat)
			n++
			return emit("distance-cheat", idx, r)
		})
		if err != nil {
			return err
		}
		if err := emitSummary("distance-cheat", n, map[string]*stats.Digest{
			"total_truthful": truthful, "total_cheat": cheat,
		}); err != nil {
			return err
		}
	}
	if has(fig, "all", "extras") {
		// The shared extrasOptions bounds mean batch and streaming
		// extras cover the same work for the same flags — except the
		// preference-range ablation (a derived sweep of full re-runs,
		// figure mode only; see the package comment).
		dOpt, sOpt, stOpt := extrasOptions(opt, bopt)

		dst := stats.NewDigest()
		n := 0
		err := experiments.DestinationStream(ds, dOpt, func(idx int, r *experiments.DestinationPairResult) error {
			dst.Add(r.GainDstOnly)
			n++
			return emit("destination", idx, r)
		})
		if err != nil {
			return err
		}
		if err := emitSummary("destination", n, map[string]*stats.Digest{"gain_dst_only": dst}); err != nil {
			return err
		}

		// Same fraction sweep as batch extras, so streamed records carry
		// the full §6 curve.
		first := stats.NewDigest()
		n = 0
		err = experiments.ScalabilityStream(ds, sOpt, extrasFractions,
			func(idx int, r *experiments.ScalabilityPairResult) error {
				first.Add(r.GainShares[0])
				n++
				return emit("scalability", idx, r)
			})
		if err != nil {
			return err
		}
		if err := emitSummary("scalability", n, map[string]*stats.Digest{"gain_share_20pct_traffic": first}); err != nil {
			return err
		}

		worst := stats.NewDigest()
		cases, err := experiments.StabilityStream(ds, stOpt, func(idx int, r *experiments.StabilityCaseResult) error {
			worst.Add(r.ReactiveWorst)
			return emit("stability", idx, r)
		})
		if err != nil {
			return err
		}
		if err := emitSummary("stability", cases, map[string]*stats.Digest{"reactive_worst_mel": worst}); err != nil {
			return err
		}
	}
	return nil
}

func loadDataset(path string, isps, workers int) (*experiments.Dataset, error) {
	if path != "" && isps > 0 {
		return nil, fmt.Errorf("-isps sizes the generated dataset and conflicts with -dataset %s", path)
	}
	if path == "" {
		cfg := gen.DefaultConfig()
		if isps > 0 {
			cfg.NumISPs = isps
		}
		// Generation shards per ISP (dataset format v2) over the same
		// worker pool the experiments use; the dataset is identical at
		// every -workers value.
		return experiments.LoadWorkers(cfg, workers)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	loaded, err := topology.Read(f)
	if err != nil {
		return nil, err
	}
	return experiments.FromISPs(loaded), nil
}

func has(v string, options ...string) bool {
	for _, o := range options {
		if v == o {
			return true
		}
	}
	return false
}

func section(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nexitsim:", err)
	os.Exit(1)
}
