package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// procStart is taken at package initialisation, as close to the start
// of the child process as Go code gets.
var procStart = time.Now()

// metricDef declares one metric exactly as BENCHMARK.json lists it.
// Bound is set on end-to-end metrics only.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. The builder's contract
// makes every workload report every end-to-end metric, so the set is
// workload-neutral: each workload says in its definition which of the
// issue's names (pairs_per_s, ttfr_s, session_ms_p50, ...) fills the
// ops_per_s and op_ms_p50 slots. README.md has the table, and the
// measured run-to-run spreads behind the bounds.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer is every single-layer metric a traced run can report, by
// module. A workload reports the ones it names in workload.layers; the
// contract's result line fills in the others from probes.
var perLayer = []metricDef{
	{Name: "gen.generate_s", Unit: "s", Better: "lower"},
	{Name: "gen.isps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "gen.allocs_per_isp", Unit: "count", Better: "lower"},
	{Name: "topology.allpairs_s", Unit: "s", Better: "lower"},
	{Name: "topology.pairs", Unit: "count", Better: "higher"},
	{Name: "routing.table_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "routing.pathindex_us_p50", Unit: "us", Better: "lower"},
	{Name: "pairsim.warm_s", Unit: "s", Better: "lower"},
	{Name: "pairsim.new_us_p50", Unit: "us", Better: "lower"},
	{Name: "pairsim.share", Unit: "ratio", Better: "lower"},
	{Name: "traffic.new_us_p50", Unit: "us", Better: "lower"},
	{Name: "traffic.share", Unit: "ratio", Better: "lower"},
	{Name: "nexit.prefs_share", Unit: "ratio", Better: "lower"},
	{Name: "nexit.prefs_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "nexit.commit_share", Unit: "ratio", Better: "lower"},
	{Name: "nexit.prefs_rows_per_s.distance", Unit: "1/s", Better: "higher"},
	{Name: "nexit.prefs_rows_per_s.bandwidth", Unit: "1/s", Better: "higher"},
	{Name: "nexit.prefs_rows_per_s.fortz-thorup", Unit: "1/s", Better: "higher"},
	{Name: "nexit.prefs_allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "nexit.engine_share", Unit: "ratio", Better: "lower"},
	{Name: "nexit.negotiate_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "nexit.negotiate_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "nexit.rounds_per_op", Unit: "count", Better: "lower"},
	{Name: "nexit.reverted_per_op", Unit: "count", Better: "lower"},
	{Name: "nexit.items_per_engine_s", Unit: "1/s", Better: "higher"},
	{Name: "optimal.lp_share", Unit: "ratio", Better: "lower"},
	{Name: "optimal.lp_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "optimal.lp_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "optimal.distance_share", Unit: "ratio", Better: "lower"},
	{Name: "baseline.share", Unit: "ratio", Better: "lower"},
	{Name: "experiments.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "stats.encode_share", Unit: "ratio", Better: "lower"},
	{Name: "stats.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "runner.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "nexitwire.hello_us", Unit: "us", Better: "lower"},
	{Name: "nexitwire.prefs_us", Unit: "us", Better: "lower"},
	{Name: "nexitwire.propose_us", Unit: "us", Better: "lower"},
	{Name: "nexitwire.commit_us", Unit: "us", Better: "lower"},
	{Name: "nexitwire.frames_per_session", Unit: "count", Better: "lower"},
	{Name: "nexitwire.bytes_per_session", Unit: "B", Better: "lower"},
	{Name: "nexitwire.allocs_per_session", Unit: "count", Better: "lower"},
	{Name: "nexitwire.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "nexitwire.session_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "nexitwire.session_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "nexitwire.wire_share", Unit: "ratio", Better: "lower"},
	{Name: "mesh.startup_s", Unit: "s", Better: "lower"},
	{Name: "agentd.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "agentd.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "agentd.sessions_failed", Unit: "count", Better: "lower"},
	{Name: "agentd.resyncs", Unit: "count", Better: "lower"},
	{Name: "agentd.dial_retries", Unit: "count", Better: "lower"},
	{Name: "continuous.epoch_us_p50", Unit: "us", Better: "lower"},
	{Name: "continuous.serial_epoch_us", Unit: "us", Better: "lower"},
	{Name: "continuous.replayed_epochs_per_recover", Unit: "count", Better: "lower"},
	{Name: "continuous.full_replay_ms", Unit: "ms", Better: "lower"},
	{Name: "continuous.recover_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "snapshot.encode_us_p50", Unit: "us", Better: "lower"},
	{Name: "snapshot.decode_us_p50", Unit: "us", Better: "lower"},
	{Name: "snapshot.bytes", Unit: "B", Better: "lower"},
	{Name: "snapshot.save_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "snapshot.load_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "proc.trace_overhead_share", Unit: "ratio", Better: "lower"},
}

// procLayers are the process metrics every traced run reports.
var procLayers = []string{"proc.allocs_per_op", "proc.alloc_mb_per_op", "proc.gc_cpu_share"}

func unitOf(defs []metricDef, name string) (string, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit, true
		}
	}
	return "", false
}

// reading is one reported metric: the median of its samples (or the
// single value of an exact count), the quartiles and the sample count.
// As is the issue's per-workload name for an end-to-end slot.
type reading struct {
	Name  string  `json:"name"`
	As    string  `json:"as,omitempty"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// quantile interpolates linearly between order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// summarize reports the q-quantile of samples as the value, with the
// quartiles and count beside it.
func summarize(name, unit string, samples []float64, q float64) reading {
	s := sortedCopy(samples)
	return reading{Name: name, Unit: unit, Value: quantile(s, q), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// layerSet collects a traced run's per-layer readings, refusing names
// that perLayer does not declare.
type layerSet struct {
	readings []reading
}

func (ls *layerSet) samples(name string, samples []float64, q float64) {
	unit, ok := unitOf(perLayer, name)
	if !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	ls.readings = append(ls.readings, summarize(name, unit, samples, q))
}

func (ls *layerSet) median(name string, samples []float64) { ls.samples(name, samples, 0.5) }
func (ls *layerSet) value(name string, v float64)          { ls.samples(name, []float64{v}, 0.5) }

// environment pins where a result was measured; -compare refuses to
// print a ratio across two results whose environments differ.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func readEnvironment() environment {
	return environment{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// commit names the source revision: the VCS stamp when the binary has
// one, else git, else "unknown" (the driver's checkout is not a git
// repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// procSample is a reading of the process-wide allocation and GC
// counters; the difference of two brackets a pass.
type procSample struct {
	mallocs, bytes uint64
	gcCPU, cpu     float64
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return procSample{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), cpu: s[1].Value.Float64()}
}

// procReadings turns the counters around one untraced pass of ops
// operations into the proc.* rows.
func (ls *layerSet) procReadings(before, after procSample, ops int) {
	n := math.Max(float64(ops), 1)
	ls.value("proc.allocs_per_op", float64(after.mallocs-before.mallocs)/n)
	ls.value("proc.alloc_mb_per_op", float64(after.bytes-before.bytes)/n/(1<<20))
	share := 0.0
	if d := after.cpu - before.cpu; d > 0 {
		share = (after.gcCPU - before.gcCPU) / d
	}
	ls.value("proc.gc_cpu_share", share)
}

// hashWriter hashes and counts what is written to it: the sink the
// experiment workloads stream their NDJSON into.
type hashWriter struct {
	h hash.Hash
	n int64
}

func newHashWriter() *hashWriter { return &hashWriter{h: sha256.New()} }

func (w *hashWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func (w *hashWriter) sum() string { return hex.EncodeToString(w.h.Sum(nil)) }

func sha256Hex(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scale sizes every workload. full is what BENCHMARK.json measures;
// short is the smoke scale bench_test.go runs under go test.
type scale struct {
	Name              string `json:"name"`
	SetupReps         int    `json:"setup_reps"`
	MinPasses         int    `json:"min_passes"`
	DistPairs         int    `json:"dist_pairs"` // 0 = all
	BwISPs            int    `json:"bw_isps"`
	BwPairs           int    `json:"bw_pairs"`
	BwFailures        int    `json:"bw_failures"`
	ColdISPs          int    `json:"cold_isps"`
	ColdPairs         int    `json:"cold_pairs"`
	MeshEpochs        int    `json:"mesh_epochs"`
	WireSmallSessions int    `json:"wire_small_sessions"` // per pass
	WireLargeSessions int    `json:"wire_large_sessions"`
	WireWarmup        int    `json:"wire_warmup"`
	RecoverEpochs     int    `json:"recover_epochs"`
	RecoverInterval   int    `json:"recover_interval"`
	RecoverSeeks      int    `json:"recover_seeks"`
	PrefsProbeCalls   int    `json:"prefs_probe_calls"`
}

var (
	fullScale = scale{
		Name: "full", SetupReps: 5, MinPasses: 3,
		BwISPs: 30, ColdISPs: 1024, ColdPairs: 64, MeshEpochs: 250,
		WireSmallSessions: 500, WireLargeSessions: 20, WireWarmup: 50,
		RecoverEpochs: 400, RecoverInterval: 20, RecoverSeeks: 60,
		PrefsProbeCalls: 200,
	}
	shortScale = scale{
		Name: "short", SetupReps: 1, MinPasses: 1,
		DistPairs: 6, BwISPs: 30, BwPairs: 2, BwFailures: 4,
		ColdISPs: 96, ColdPairs: 4, MeshEpochs: 5,
		WireSmallSessions: 5, WireLargeSessions: 1, WireWarmup: 1,
		RecoverEpochs: 40, RecoverInterval: 10, RecoverSeeks: 3,
		PrefsProbeCalls: 3,
	}
)

// config is one child run's input.
type config struct {
	Seed    int64
	Seconds float64
	Scale   scale
	OutDir  string // traces and scratch files go here
	// Probes makes a traced run also read, at smoke scale, the layers
	// its own workload leaves idle (see result.Probes).
	Probes bool
}

// workersCap is the most goroutines or connections a workload may use.
func workersCap() int { return runtime.GOMAXPROCS(0) }

// passResult is one measured pass. Rate is its throughput in the
// workload's own operations per second; LatMs are its latency samples
// (one per session or recovery, or one per pass where the pass itself
// is what a user waits for). SHA digests the outputs.
type passResult struct {
	Ops, Failed int
	Rate        float64
	LatMs       []float64
	SHA         string
}

// instance is a workload set up and warmed, ready to be measured.
type instance interface {
	// digest pins the workload: generated dataset plus options.
	digest() string
	// pass runs one untraced measured pass.
	pass() (*passResult, error)
	// trace runs the traced measurement and fills in the workload's
	// per-layer readings; the returned pass carries ops, failures and
	// the output digest, which must equal the untraced one.
	trace(t *tracer, ls *layerSet) (*passResult, error)
	close() error
}

// workload is one named set of inputs.
type workload struct {
	name, why string
	// opsAs and latAs are the issue's names for what this workload
	// reports as ops_per_s and op_ms_p50.
	opsAs, latAs string
	// layers are the per-layer metrics its traced run reports.
	layers []string
	// setupReps is how often an untraced run sets up: often where a
	// set-up takes tens of milliseconds and one reading would be noise,
	// once where it takes seconds and is its own average.
	setupReps int
	setup     func(c *config) (instance, error)
}

// result is a child's full report; resultLine is the one-line form the
// builder's contract reads.
type result struct {
	Workload  string      `json:"workload"`
	Traced    bool        `json:"traced"`
	Env       environment `json:"env"`
	Seed      int64       `json:"seed"`
	Scale     scale       `json:"scale"`
	Digest    string      `json:"workload_digest"`
	Passes    int         `json:"passes"`
	Ops       int         `json:"ops"`
	Failed    int         `json:"failed"`
	OutputSHA string      `json:"output_sha256"`
	Golden    string      `json:"golden"`
	Metrics   []reading   `json:"metrics"`
	// Probes are the per-layer metrics this workload does not exercise,
	// read from smoke-scale traced runs of the workloads that do. The
	// contract's result line carries every per-layer metric for every
	// workload and wants each value measured, not a constant; these
	// fill the rest of that line and are no part of the workload's own
	// budget.
	Probes []reading `json:"probes,omitempty"`
	Errors []string  `json:"errors,omitempty"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) correct() bool {
	return r.Failed == 0 && r.Golden != goldenMismatch && len(r.Errors) == 0
}

// line renders the contract's form: every declared metric of the run's
// kind, the workload's own readings first and probes for the rest.
func (r *result) line() resultLine {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	out := resultLine{Correct: r.correct(), Attempted: max(r.Ops, 1), Failed: r.Failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Unit: d.Unit}
	}
	for _, m := range append(append([]reading(nil), r.Probes...), r.Metrics...) {
		out.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	return out
}

const (
	goldenMatch    = "match"
	goldenMismatch = "mismatch"
	goldenUnpinned = "unpinned"
)

//go:embed golden.json
var goldenJSON []byte

// goldenStatus compares an output digest with the pin for this
// workload. Pins exist for seed 1 at full scale on linux/amd64; any
// other run is unpinned, not failed.
func goldenStatus(w string, c *config, sha string) string {
	var pins struct {
		GOOS, GOARCH string
		Seed         int64
		Scale        string
		SHA256       map[string]string
	}
	if err := json.Unmarshal(goldenJSON, &pins); err != nil {
		return goldenUnpinned
	}
	want, ok := pins.SHA256[w]
	if !ok || pins.GOOS != runtime.GOOS || pins.GOARCH != runtime.GOARCH || pins.Seed != c.Seed || pins.Scale != c.Scale.Name {
		return goldenUnpinned
	}
	if want != sha {
		return goldenMismatch
	}
	return goldenMatch
}

// run measures one workload in this process: the untraced end-to-end
// run, or the traced per-layer run.
func run(w *workload, c *config, traced bool) *result {
	res := &result{Workload: w.name, Traced: traced, Env: readEnvironment(), Seed: c.Seed, Scale: c.Scale, Golden: goldenUnpinned}
	var err error
	if traced {
		err = runTraced(w, c, res)
	} else {
		err = runUntraced(w, c, res)
	}
	if err != nil {
		res.Errors = append(res.Errors, err.Error())
		res.Failed = max(res.Failed, 1)
	}
	if res.OutputSHA != "" {
		res.Golden = goldenStatus(w.name, c, res.OutputSHA)
		if res.Golden == goldenMismatch {
			res.Errors = append(res.Errors, "output_sha256 differs from golden.json")
			res.Failed = max(res.Failed, res.Ops)
		}
	}
	return res
}

// runUntraced sets the workload up w.setupReps times (at smoke scale,
// once); setup_s is the median, and one set-up includes the discarded
// warm-up pass, so lazy caches show. It then measures passes over
// identical input until c.Seconds have gone by.
func runUntraced(w *workload, c *config, res *result) error {
	var (
		inst   instance
		setups []float64
	)
	for rep := 0; rep < min(w.setupReps, c.Scale.SetupReps); rep++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return err
			}
		}
		start := time.Now()
		if rep == 0 {
			start = procStart // the first set-up also pays process start
		}
		var err error
		if inst, err = w.setup(c); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	res.Digest = inst.digest()

	var (
		rates, lats []float64
		rss         float64
	)
	deadline := time.Now().Add(time.Duration(c.Seconds * float64(time.Second)))
	for k := 0; k < c.Scale.MinPasses || time.Now().Before(deadline); k++ {
		p, err := inst.pass()
		if err != nil {
			return fmt.Errorf("pass %d: %w", k, err)
		}
		res.Passes++
		res.Ops += p.Ops
		res.Failed += p.Failed
		if res.OutputSHA == "" {
			res.OutputSHA = p.SHA
		} else if p.SHA != res.OutputSHA {
			res.Failed += p.Ops
			res.Errors = append(res.Errors, fmt.Sprintf("pass %d output %s differs from pass 0 %s", k, p.SHA, res.OutputSHA))
		}
		rates = append(rates, p.Rate)
		lats = append(lats, p.LatMs...)
		if res.Passes == c.Scale.MinPasses {
			// Fixed work — the set-ups and the first MinPasses passes —
			// so that a faster run, fitting more passes, does not read a
			// higher peak.
			rss = peakRSSMB()
		}
	}

	ops := summarize("ops_per_s", "1/s", rates, 0.5)
	ops.As = w.opsAs
	lat := summarize("op_ms_p50", "ms", lats, 0.5)
	lat.As = w.latAs
	res.Metrics = []reading{
		summarize("setup_s", "s", setups, 0.5),
		{Name: "peak_rss_mb", Unit: "MB", Value: rss, Q1: rss, Q3: rss, N: 1},
		ops, lat,
	}
	return nil
}

// runTraced sets up once and hands over to the workload's traced
// measurement, then stores the spans.
func runTraced(w *workload, c *config, res *result) error {
	inst, err := w.setup(c)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	res.Digest = inst.digest()
	t := newTracer()
	var ls layerSet
	p, err := inst.trace(t, &ls)
	if p != nil {
		res.Passes, res.Ops, res.Failed, res.OutputSHA = 1, p.Ops, p.Failed, p.SHA
	}
	if err != nil {
		return err
	}
	res.Metrics = ls.readings
	if err := t.check(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := t.write(c.OutDir, w.name); err != nil {
		return err
	}
	if c.Probes {
		return probeOthers(w, c, res)
	}
	return nil
}

// probeOthers runs every other workload's traced measurement at smoke
// scale and keeps the readings w itself did not produce.
func probeOthers(w *workload, c *config, res *result) error {
	have := make(map[string]bool)
	for _, m := range res.Metrics {
		have[m.Name] = true
	}
	pc := *c
	pc.Scale, pc.Probes = shortScale, false
	for _, other := range workloads {
		if other == w {
			continue
		}
		inst, err := other.setup(&pc)
		if err != nil {
			return fmt.Errorf("probe %s: set-up: %w", other.name, err)
		}
		var ls layerSet
		_, err = inst.trace(newTracer(), &ls)
		inst.close()
		if err != nil {
			return fmt.Errorf("probe %s: %w", other.name, err)
		}
		for _, m := range ls.readings {
			if !have[m.Name] {
				have[m.Name] = true
				res.Probes = append(res.Probes, m)
			}
		}
	}
	return nil
}
