// Command nexitsim reproduces the paper's evaluation (§5): it runs the
// default, negotiated, and globally optimal routing over the synthetic
// dataset and prints each figure's CDF series as an aligned text table.
//
// Usage:
//
//	nexitsim [-fig all|4|5|6|7|8|9|10|11|extras] [-max-pairs N]
//	         [-max-failures N] [-seed N] [-workers N]
//	         [-dataset FILE] [-isps N] [-inventory]
//	         [-stream] [-out FILE]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// Each printed block corresponds to one figure panel of the paper; the
// x-grid matches the paper's axes. -fig extras prints the analyses the
// paper states in its text (§5.1, §5, §6, footnote 2, §1/§2.2). Figure
// mode folds the records the streaming drivers deliver through
// internal/plot's fold, the one nexitplot uses, whose curves keep every
// sample — so its summary lines are exact at any scale, and nexitplot
// over this binary's -stream output prints exactly this mode's stdout.
// An unknown -fig is a usage error.
//
// With -stream (or -out), nexitsim switches to the streaming pipeline
// (DESIGN.md §8): per-pair / per-failure-case results are emitted
// incrementally as NDJSON — one {"experiment","index","data"} object
// per line, in deterministic pair order, followed by one
// {"experiment","results"} summary line per experiment counting its
// records. Nothing is buffered, so arbitrarily large datasets run in
// O(workers) memory. Both modes run the same streams for the same
// flags.
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
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/plot"
	"repro/internal/topology"
	"repro/internal/traffic"
)

func main() {
	var (
		fig         = flag.String("fig", "all", "figure to reproduce: "+strings.Join(figures, ", "))
		maxPairs    = flag.Int("max-pairs", 0, "limit ISP pairs (0 = all)")
		maxFailures = flag.Int("max-failures", 0, "limit bandwidth failure cases (0 = all)")
		seed        = flag.Int64("seed", 1, "experiment seed")
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
	if !slices.Contains(figures, *fig) {
		fmt.Fprintf(os.Stderr, "nexitsim: unknown -fig %q; valid values: %s\n", *fig, strings.Join(figures, ", "))
		flag.Usage()
		os.Exit(2)
	}

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
	// through the fold nexitplot uses.
	fold := plot.NewFold()
	err = runExperiments(ds, *fig, opt, bopt, sinks{
		distance:    fold.AddDistance,
		bandwidth:   fold.AddBandwidth,
		cheat:       fold.AddCheat,
		ablation:    fold.AddAblation,
		destination: fold.AddDestination,
		scalability: fold.AddScalability,
		stability:   fold.AddStability,
	}, nil)
	if err != nil {
		fatal(err)
	}
	if err := fold.Render(os.Stdout, *fig); err != nil {
		fatal(err)
	}
}

// figures are the -fig values: every figure of the paper's §5, the
// analyses it states in text (extras), or all of them.
var figures = []string{"all", "4", "5", "6", "7", "8", "9", "10", "11", "extras"}

// sinks receive the records of each experiment a run selects.
type sinks struct {
	distance    func(int, *experiments.DistancePairResult) error
	bandwidth   func(int, *experiments.BandwidthCaseResult) error
	cheat       func(int, *experiments.CheatPairResult) error
	ablation    func(int, *experiments.AblationPairResult) error
	destination func(int, *experiments.DestinationPairResult) error
	scalability func(int, *experiments.ScalabilityPairResult) error
	stability   func(int, *experiments.StabilityCaseResult) error
}

// runExperiments runs the streams the figure selection fig needs, each
// once, delivering their records to s. done, when set, is called after
// each experiment with its name.
func runExperiments(ds *experiments.Dataset, fig string, opt experiments.Options, bopt experiments.BandwidthOptions,
	s sinks, done func(exp string) error) error {
	// The extras renegotiate pairs repeatedly, so unbounded runs are
	// capped: the destination-based comparison at 100 pairs, the
	// scalability sweep (six negotiations a pair) at 60, and the
	// stability replay at 40 pairs and 300 failure cases.
	capAt := func(n, limit int) int {
		if n == 0 || n > limit {
			return limit
		}
		return n
	}
	dOpt, sOpt, stOpt := opt, opt, bopt
	dOpt.MaxPairs = capAt(opt.MaxPairs, 100)
	sOpt.MaxPairs = capAt(opt.MaxPairs, 60)
	stOpt.MaxPairs, stOpt.MaxFailures = capAt(bopt.MaxPairs, 40), capAt(bopt.MaxFailures, 300)

	extras := []string{"extras"}
	for _, e := range []struct {
		name string
		figs []string // the -fig values besides "all" that select it
		run  func() error
	}{
		{"distance", []string{"4", "5", "6", "extras"}, func() error {
			return experiments.DistanceStream(ds, opt, s.distance)
		}},
		{"bandwidth", []string{"7", "8", "9", "11"}, func() error {
			_, err := experiments.BandwidthStream(ds, bopt, s.bandwidth)
			return err
		}},
		{"distance-cheat", []string{"10"}, func() error {
			return experiments.DistanceCheatStream(ds, opt, s.cheat)
		}},
		{"ablation", extras, func() error {
			return experiments.AblationStream(ds, opt, experiments.AblationBounds, s.ablation)
		}},
		{"destination", extras, func() error {
			return experiments.DestinationStream(ds, dOpt, s.destination)
		}},
		{"scalability", extras, func() error {
			return experiments.ScalabilityStream(ds, sOpt, experiments.ScalabilityFractions, s.scalability)
		}},
		{"stability", extras, func() error {
			_, err := experiments.StabilityStream(ds, stOpt, s.stability)
			return err
		}},
	} {
		if fig != "all" && !slices.Contains(e.figs, fig) {
			continue
		}
		if err := e.run(); err != nil {
			return err
		}
		if done != nil {
			if err := done(e.name); err != nil {
				return err
			}
		}
	}
	return nil
}

// runStreaming runs the figure selection with every record emitted as
// one NDJSON object as it is produced, and one summary line per
// experiment counting its records. Output order is deterministic (the
// runner's ordered reducer), so two runs with the same flags are
// byte-identical regardless of -workers.
func runStreaming(w io.Writer, ds *experiments.Dataset, fig string, opt experiments.Options, bopt experiments.BandwidthOptions) error {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	enc := json.NewEncoder(bw)

	results := 0 // records of the experiment in progress
	write := func(v any) error {
		if err := enc.Encode(v); err != nil {
			return err
		}
		return bw.Flush() // one line out per result: truly incremental
	}
	done := func(exp string) error {
		n := results
		results = 0
		return write(summary{Experiment: exp, Results: n})
	}
	return runExperiments(ds, fig, opt, bopt, sinks{
		distance:    emitter[experiments.DistancePairResult]("distance", &results, write),
		bandwidth:   emitter[experiments.BandwidthCaseResult]("bandwidth", &results, write),
		cheat:       emitter[experiments.CheatPairResult]("distance-cheat", &results, write),
		ablation:    emitter[experiments.AblationPairResult]("ablation", &results, write),
		destination: emitter[experiments.DestinationPairResult]("destination", &results, write),
		scalability: emitter[experiments.ScalabilityPairResult]("scalability", &results, write),
		stability:   emitter[experiments.StabilityCaseResult]("stability", &results, write),
	}, done)
}

// The two line shapes of a -stream run: a record envelope, and the
// summary line closing each experiment.
type (
	envelope struct {
		Experiment string `json:"experiment"`
		Index      int    `json:"index"`
		Data       any    `json:"data"`
	}
	summary struct {
		Experiment string `json:"experiment"`
		Results    int    `json:"results"`
	}
)

// emitter returns a sink that writes each record of experiment exp as
// one envelope line through write, counting it in *n.
func emitter[R any](exp string, n *int, write func(any) error) func(int, *R) error {
	return func(idx int, r *R) error {
		*n++
		return write(envelope{Experiment: exp, Index: idx, Data: r})
	}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nexitsim:", err)
	os.Exit(1)
}
