package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/pairsim"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The three experiment workloads drive the figure pipeline the way
// `nexitsim -stream` does: records stream into ndjson, a hashing sink
// with the same envelope, per-line flush and digest fold.

// universe generates the pinned dataset of n ISPs. The universe is
// gen.DefaultConfig at every --seed: a universe from another generator
// seed is another workload (543 eligible pairs become 630, pairs/s
// moves by half), so --seed drives only what happens downstream of it —
// the experiments' per-pair random streams and keyed pair selection.
func universe(n int) gen.Config {
	cfg := gen.DefaultConfig()
	if n > 0 {
		cfg.NumISPs = n
	}
	return cfg
}

// workloadDigest pins a workload: the generated dataset's .topo bytes
// plus the options the workload runs it with.
func workloadDigest(isps []*topology.ISP, options any) (string, error) {
	var topo bytes.Buffer
	if err := topology.Write(&topo, isps); err != nil {
		return "", err
	}
	opts, err := json.Marshal(options)
	if err != nil {
		return "", err
	}
	return sha256Hex(topo.Bytes(), opts), nil
}

// ndjson is the record sink of one pass.
type ndjson struct {
	t       *tracer
	hw      *hashWriter
	bw      *bufio.Writer
	enc     *json.Encoder
	start   time.Time
	first   time.Duration // pass start to first record
	records int
}

// newNDJSON opens a sink for a pass that began at start.
func newNDJSON(t *tracer, start time.Time) *ndjson {
	hw := newHashWriter()
	bw := bufio.NewWriter(hw)
	return &ndjson{t: t, hw: hw, bw: bw, enc: json.NewEncoder(bw), start: start}
}

// emit writes one record line, flushed as nexitsim flushes it; fold
// adds the record to the summary digests first.
func (s *ndjson) emit(exp string, idx int, data any, fold func()) error {
	sp := s.t.begin("stats.encode")
	defer s.t.end(sp)
	fold()
	err := s.enc.Encode(struct {
		Experiment string `json:"experiment"`
		Index      int    `json:"index"`
		Data       any    `json:"data"`
	}{exp, idx, data})
	if err != nil {
		return err
	}
	if s.records == 0 {
		s.first = time.Since(s.start)
	}
	s.records++
	return s.bw.Flush()
}

// summary writes the closing line of an experiment.
func (s *ndjson) summary(exp string, n int, digests map[string]*stats.Digest) error {
	sp := s.t.begin("stats.encode")
	defer s.t.end(sp)
	series := make(map[string]string, len(digests))
	for name, d := range digests {
		series[name] = d.Summary()
	}
	err := s.enc.Encode(struct {
		Experiment string                   `json:"experiment"`
		Results    int                      `json:"results"`
		Series     map[string]string        `json:"series"`
		Digests    map[string]*stats.Digest `json:"digests,omitempty"`
	}{exp, n, series, digests})
	if err != nil {
		return err
	}
	return s.bw.Flush()
}

// streamed is what one pass over an experiment produced.
type streamed struct {
	records int
	bytes   int64
	sha     string
	first   time.Duration
	wall    time.Duration
}

func (s *ndjson) done() streamed {
	return streamed{records: s.records, bytes: s.hw.n, sha: s.hw.sum(), first: s.first, wall: time.Since(s.start)}
}

// passOf turns a streamed pass into the harness's pass: the pass wall
// time is both the throughput window and the one latency sample.
func (st streamed) passOf() *passResult {
	return &passResult{Ops: st.records, Rate: float64(st.records) / st.wall.Seconds(), LatMs: []float64{st.wall.Seconds() * 1e3}, SHA: st.sha}
}

// streamDistance runs one pass of the §5.1 pipeline, begun at start:
// the harness replica (at Workers=1) when rp is set, else the real
// driver.
func streamDistance(rp *replica, ds *experiments.Dataset, opt experiments.Options, start time.Time) (streamed, error) {
	sink := newNDJSON(rp.tracer(), start)
	neg, opt2 := stats.NewDigest(), stats.NewDigest()
	n := 0
	deliver := func(idx int, r *experiments.DistancePairResult) error {
		n++
		return sink.emit("distance", idx, r, func() {
			neg.Add(r.GainNeg)
			opt2.Add(r.GainOpt)
		})
	}
	var err error
	if rp != nil {
		err = rp.distanceStream(ds.ISPs, opt, deliver)
	} else {
		err = experiments.DistanceStream(ds, opt, deliver)
	}
	if err != nil {
		return streamed{}, err
	}
	err = sink.summary("distance", n, map[string]*stats.Digest{"gain_negotiated": neg, "gain_optimal": opt2})
	return sink.done(), err
}

// streamBandwidth runs one pass of the §5.2 failure pipeline.
func streamBandwidth(rp *replica, ds *experiments.Dataset, opt experiments.BandwidthOptions) (streamed, error) {
	sink := newNDJSON(rp.tracer(), time.Now())
	upNeg, downNeg := stats.NewDigest(), stats.NewDigest()
	deliver := func(idx int, r *experiments.BandwidthCaseResult) error {
		return sink.emit("bandwidth", idx, r, func() {
			upNeg.Add(r.UpNeg)
			downNeg.Add(r.DownNeg)
		})
	}
	var (
		cases int
		err   error
	)
	if rp != nil {
		cases, err = rp.bandwidthStream(ds.ISPs, opt, deliver)
	} else {
		cases, err = experiments.BandwidthStream(ds, opt, deliver)
	}
	if err != nil {
		return streamed{}, err
	}
	err = sink.summary("bandwidth", cases, map[string]*stats.Digest{"up_negotiated": upNeg, "down_negotiated": downNeg})
	return sink.done(), err
}

// tracedExperiment is the traced measurement the three experiment
// workloads share: an untraced pass at Workers=nproc, an untraced pass
// at Workers=1 (bracketed by the process counters), then the traced
// replica at Workers=1. All three must produce the same bytes.
func tracedExperiment(ls *layerSet, untraced func(workers int) (streamed, error), tracedPass func() (streamed, error)) (par, one, traced streamed, err error) {
	if par, err = untraced(workersCap()); err != nil {
		return
	}
	before := readProc()
	if one, err = untraced(1); err != nil {
		return
	}
	after := readProc()
	if traced, err = tracedPass(); err != nil {
		return
	}
	ls.procReadings(before, after, one.records)
	ls.value("proc.trace_overhead_share", traced.wall.Seconds()/one.wall.Seconds()-1)
	return
}

// sameOutput is the correctness gate of the experiment workloads.
func sameOutput(par, one, traced streamed) (*passResult, error) {
	p := &passResult{Ops: traced.records, SHA: par.sha}
	if par.sha != one.sha || par.sha != traced.sha || par.records != traced.records {
		p.Failed = p.Ops
		return p, fmt.Errorf("outputs differ: workers=%d %s (%d records), workers=1 %s, traced %s (%d records)",
			workersCap(), par.sha, par.records, one.sha, traced.sha, traced.records)
	}
	return p, nil
}

// dist65 and bw30: a warmed dataset, full passes over it.

type streamInst struct {
	ds  *experiments.Dataset
	sha string
	// stream runs one pass; with a replica it is the traced pass.
	stream func(rp *replica, workers int) (streamed, error)
	// layers reports what only this workload measures.
	layers func(t *tracer, ls *layerSet)
	shares []string
}

func (in *streamInst) digest() string { return in.sha }
func (in *streamInst) close() error   { return nil }

func (in *streamInst) pass() (*passResult, error) {
	st, err := in.stream(nil, workersCap())
	if err != nil {
		return nil, err
	}
	return st.passOf(), nil
}

func (in *streamInst) trace(t *tracer, ls *layerSet) (*passResult, error) {
	// pairsim.warm_s: what Warm costs this dataset, on a cache of its own.
	start := time.Now()
	pairsim.NewTableCache().Warm(in.ds.ISPs, workersCap())
	ls.value("pairsim.warm_s", time.Since(start).Seconds())

	rp := &replica{t: t, cache: in.ds.Cache}
	par, one, traced, err := tracedExperiment(ls,
		func(workers int) (streamed, error) { return in.stream(nil, workers) },
		func() (streamed, error) { return in.stream(rp, 1) })
	if err != nil {
		return nil, err
	}
	self := t.selfByName()
	passS := traced.wall.Seconds()
	attributed := 0.0
	for _, metric := range in.shares {
		share := 0.0
		for _, name := range spansOf[metric] {
			share += self[name] / passS
		}
		ls.value(metric, share)
		attributed += share
	}
	ls.value("experiments.unattributed_share", 1-attributed)
	rp.engineReadings(ls, traced.records, self["nexit.negotiate"])
	ls.median("pairsim.new_us_p50", t.durations("pairsim.new", time.Microsecond))
	ls.value("stats.bytes_per_record", float64(traced.bytes)/float64(max(traced.records, 1)))
	ls.value("runner.parallel_efficiency", one.wall.Seconds()/(float64(workersCap())*par.wall.Seconds()))
	if in.layers != nil {
		in.layers(t, ls)
	}
	return sameOutput(par, one, traced)
}

// setup generates and warms the dataset and runs the discarded
// warm-up pass, which fills the lazy per-table caches.
func (in *streamInst) setup(isps int, options any) (instance, error) {
	ds, err := experiments.LoadWorkers(universe(isps), workersCap())
	if err != nil {
		return nil, err
	}
	in.ds = ds
	if in.sha, err = workloadDigest(ds.ISPs, options); err != nil {
		return nil, err
	}
	ds.Warm(workersCap())
	if _, err := in.stream(nil, workersCap()); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return in, nil
}

// spansOf maps each share metric to the spans whose self time it sums.
// Whatever a traced pass spends outside them — driver glue the replica
// copies, keyed selection, capacity assignment — is unattributed.
var spansOf = map[string][]string{
	"pairsim.share":          {"pairsim.new", "pairsim.earlyexit", "pairsim.loads"},
	"traffic.share":          {"traffic.new"},
	"nexit.prefs_share":      {"nexit.prefs"},
	"nexit.commit_share":     {"nexit.commit", "nexit.revert"},
	"nexit.engine_share":     {"nexit.negotiate"},
	"optimal.lp_share":       {"optimal.bandwidth"},
	"optimal.distance_share": {"optimal.distance"},
	"baseline.share":         {"baseline"},
	"stats.encode_share":     {"stats.encode"},
}

// streamLayers are the per-layer metrics dist65 and bw30 share, beside
// their share columns.
var streamLayers = append([]string{"pairsim.warm_s", "pairsim.new_us_p50", "nexit.prefs_calls_per_op",
	"nexit.rounds_per_op", "nexit.reverted_per_op", "nexit.negotiate_ms_p50", "nexit.negotiate_ms_p90",
	"nexit.items_per_engine_s", "experiments.unattributed_share", "stats.bytes_per_record",
	"runner.parallel_efficiency", "proc.trace_overhead_share"}, procLayers...)

var distShares = []string{"pairsim.share", "traffic.share", "nexit.prefs_share", "nexit.commit_share",
	"nexit.engine_share", "optimal.distance_share", "baseline.share", "stats.encode_share"}

var dist65 = &workload{
	name:  "dist65",
	why:   "figures 4/5/6 over all pairs of the 65-ISP dataset: the engine's proposal scan does most of the work, the LP none",
	opsAs: "pairs_per_s", latAs: "pass_ms",
	layers:    append(append([]string(nil), streamLayers...), distShares...),
	setupReps: 1,
	setup: func(c *config) (instance, error) {
		opt := experiments.Options{MaxPairs: c.Scale.DistPairs, Seed: c.Seed}
		in := &streamInst{shares: distShares}
		in.stream = func(rp *replica, workers int) (streamed, error) {
			o := opt
			o.Workers = workers
			return streamDistance(rp, in.ds, o, time.Now())
		}
		return in.setup(0, struct {
			Workload string
			Options  experiments.Options
		}{"dist65", opt})
	},
}

var bwShares = []string{"pairsim.share", "traffic.share", "nexit.prefs_share", "nexit.commit_share",
	"nexit.engine_share", "optimal.lp_share", "baseline.share", "stats.encode_share"}

var bw30 = &workload{
	name:  "bw30",
	why:   "figures 7/8/9/11 over every failure case of the 30-ISP dataset: LP pivots and stateful load evaluators do most of the work, the engine runs in the deficit regime",
	opsAs: "cases_per_s", latAs: "pass_ms",
	layers: append(append([]string{"traffic.new_us_p50", "routing.table_ms_p50", "routing.pathindex_us_p50",
		"optimal.lp_ms_p50", "optimal.lp_ms_p90"}, streamLayers...), bwShares...),
	setupReps: 1,
	setup: func(c *config) (instance, error) {
		opt := experiments.BandwidthOptions{
			Options:     experiments.Options{MaxPairs: c.Scale.BwPairs, Seed: c.Seed},
			Workload:    traffic.Gravity,
			MaxFailures: c.Scale.BwFailures,
		}
		in := &streamInst{shares: bwShares}
		in.stream = func(rp *replica, workers int) (streamed, error) {
			o := opt
			o.Workers = workers
			return streamBandwidth(rp, in.ds, o)
		}
		in.layers = func(t *tracer, ls *layerSet) {
			ls.median("traffic.new_us_p50", t.durations("traffic.new", time.Microsecond))
			lp := t.durations("optimal.bandwidth", time.Millisecond)
			ls.samples("optimal.lp_ms_p50", lp, 0.5)
			ls.samples("optimal.lp_ms_p90", lp, 0.9)
			tables, indexes := probeRouting(in.ds.BandwidthPairs())
			ls.median("routing.table_ms_p50", tables)
			ls.median("routing.pathindex_us_p50", indexes)
		}
		return in.setup(c.Scale.BwISPs, struct {
			Workload string
			Options  experiments.BandwidthOptions
		}{"bw30", opt})
	},
}

// probeRouting times routing.New once per ISP the pairs touch (ms) and,
// on each fresh table, the first PathIndexFor over the interconnection
// PoPs of the first pair that uses it (us) — the build the load
// evaluators and the LP share.
func probeRouting(pairs []*topology.Pair) (tableMs, indexUs []float64) {
	seen := make(map[*topology.ISP]bool)
	for _, p := range pairs {
		apops := make([]int, len(p.Interconnections))
		bpops := make([]int, len(p.Interconnections))
		for k, ix := range p.Interconnections {
			apops[k], bpops[k] = ix.APoP, ix.BPoP
		}
		for _, side := range []struct {
			isp  *topology.ISP
			pops []int
		}{{p.A, apops}, {p.B, bpops}} {
			if seen[side.isp] {
				continue
			}
			seen[side.isp] = true
			start := time.Now()
			table := routing.New(side.isp)
			tableMs = append(tableMs, ms(time.Since(start)))
			start = time.Now()
			table.PathIndexFor(side.pops)
			indexUs = append(indexUs, us(time.Since(start)))
		}
	}
	return tableMs, indexUs
}

// cold1024: every pass is a cold start, so no state is kept warm.

type coldInst struct {
	cfg gen.Config
	opt experiments.Options
	sha string
}

func (in *coldInst) digest() string { return in.sha }
func (in *coldInst) close() error   { return nil }

// coldStart does what `nexitsim -isps N -max-pairs M -stream -fig 4`
// does before and while it streams: generate, decide whether to warm
// (which enumerates the pairs), enumerate again inside the driver,
// select by key, and build routing tables lazily as pairs touch them.
func (in *coldInst) coldStart(t *tracer, workers int) (streamed, error) {
	start := time.Now()
	opt := in.opt
	opt.Workers = workers
	if t != nil {
		rp := &replica{t: t, cache: pairsim.NewTableCache(), lazyTables: true}
		sp := t.begin("gen.generate")
		isps, err := gen.GenerateWorkers(in.cfg, workers)
		t.end(sp)
		if err != nil {
			return streamed{}, err
		}
		rp.warmDecision(isps, opt.MaxPairs)
		return streamDistance(rp, &experiments.Dataset{ISPs: isps, Cache: rp.cache}, opt, start)
	}
	ds, err := experiments.LoadWorkers(in.cfg, workers)
	if err != nil {
		return streamed{}, err
	}
	if n := opt.MaxPairs; n <= 0 || (n >= len(ds.DistancePairs()) && n >= len(ds.BandwidthPairs())) {
		ds.Warm(workers)
	}
	return streamDistance(nil, ds, opt, start)
}

func (in *coldInst) pass() (*passResult, error) {
	st, err := in.coldStart(nil, workersCap())
	if err != nil {
		return nil, err
	}
	p := st.passOf()
	p.LatMs = []float64{st.first.Seconds() * 1e3} // what a user waits for is the first record
	return p, nil
}

func (in *coldInst) trace(t *tracer, ls *layerSet) (*passResult, error) {
	par, one, traced, err := tracedExperiment(ls,
		func(workers int) (streamed, error) { return in.coldStart(nil, workers) },
		func() (streamed, error) { return in.coldStart(t, 1) })
	if err != nil {
		return nil, err
	}
	passS := traced.wall.Seconds()
	self := t.selfByName()
	attributed := 0.0
	for name, s := range self {
		if name != "pair" { // the per-pair root groups layer calls; its self time is glue
			attributed += s
		}
	}
	ls.value("experiments.unattributed_share", 1-attributed/passS)
	ls.value("nexit.engine_share", self["nexit.negotiate"]/passS)
	genS := t.durations("gen.generate", time.Second)[0]
	ls.value("gen.generate_s", genS)
	ls.value("gen.isps_per_s", float64(in.cfg.NumISPs)/genS)
	ls.median("topology.allpairs_s", t.durations("topology.allpairs", time.Second))
	ls.median("routing.table_ms_p50", t.durations("routing.table", time.Millisecond))
	ls.median("pairsim.new_us_p50", t.durations("pairsim.new", time.Microsecond))

	// One more generation, single-worker and bracketed by the allocation
	// counter; its pairs also feed the path-index probe, because the
	// distance pipeline never asks for a path index.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	isps, err := gen.GenerateWorkers(in.cfg, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	ls.value("gen.allocs_per_isp", float64(after.Mallocs-before.Mallocs)/float64(len(isps)))
	pairs := topology.AllPairs(isps, 2, true)
	ls.value("topology.pairs", float64(len(pairs)))
	_, indexes := probeRouting(keyedSelect(pairs, in.opt.MaxPairs, in.opt.Seed))
	ls.median("routing.pathindex_us_p50", indexes)
	return sameOutput(par, one, traced)
}

var cold1024 = &workload{
	name:  "cold1024",
	why:   "cold start of a 1024-ISP universe to the first 64 records: generation, pair enumeration and lazy Dijkstra do most of the work, the engine little",
	opsAs: "records_per_s", latAs: "ttfr_ms",
	layers: append([]string{"gen.generate_s", "gen.isps_per_s", "gen.allocs_per_isp", "topology.allpairs_s", "topology.pairs",
		"routing.table_ms_p50", "routing.pathindex_us_p50", "pairsim.new_us_p50", "nexit.engine_share",
		"experiments.unattributed_share", "proc.trace_overhead_share"}, procLayers...),
	setupReps: 5,
	setup: func(c *config) (instance, error) {
		in := &coldInst{
			cfg: universe(c.Scale.ColdISPs),
			opt: experiments.Options{MaxPairs: c.Scale.ColdPairs, Seed: c.Seed},
		}
		// The cold start itself is the measured region, so set-up is only
		// pinning the workload: generate the universe and digest it.
		isps, err := gen.GenerateWorkers(in.cfg, workersCap())
		if err != nil {
			return nil, err
		}
		in.sha, err = workloadDigest(isps, struct {
			Workload string
			Options  experiments.Options
		}{"cold1024", in.opt})
		return in, err
	},
}
