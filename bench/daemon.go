package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"sort"
	"time"

	"repro/internal/continuous"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/mesh"
	"repro/internal/nexit"
	"repro/internal/nexitwire"
	"repro/internal/pairsim"
	"repro/internal/runner"
	"repro/internal/snapshot"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The daemon-path workloads: a mesh of agents, one wire session pair,
// and crash recovery of one controller.

const wireTimeout = 30 * time.Second

// mesh2: two agent pairs renegotiating over loopback TCP.

type meshInst struct {
	opt    mesh.Options
	sha    string
	serial *mesh.Result // the in-process reference, computed on first need
}

func (in *meshInst) digest() string { return in.sha }
func (in *meshInst) close() error   { return nil }

// reference is mesh.RunSerial for the same options, outside any timed
// window.
func (in *meshInst) reference() (*mesh.Result, error) {
	if in.serial == nil {
		res, err := mesh.RunSerial(in.opt)
		if err != nil {
			return nil, err
		}
		in.serial = res
	}
	return in.serial, nil
}

// meshRun is one mesh.Run; with check set its pairs must equal the
// serial reference's, report for report.
func (in *meshInst) meshRun(opt mesh.Options, check bool) (*mesh.Result, mesh.Progress, *passResult, error) {
	res, err := mesh.Run(opt)
	if err != nil {
		return nil, mesh.Progress{}, nil, err
	}
	prog, err := res.Progress()
	if err != nil {
		return nil, prog, nil, err
	}
	var reports [][]*continuous.EpochReport
	for _, pr := range res.Pairs {
		reports = append(reports, pr.Reports)
	}
	out, err := json.Marshal(reports)
	if err != nil {
		return nil, prog, nil, err
	}
	p := &passResult{
		Ops:    int(res.Sessions),
		Failed: int(prog.SessionsFailed),
		Rate:   float64(res.Sessions) / res.Elapsed.Seconds(),
		SHA:    sha256Hex(out),
	}
	// The latency histogram's sum and count are exact, its buckets are
	// not: the mean is the session latency this workload can report.
	if prog.Latency.Count > 0 {
		p.LatMs = []float64{prog.Latency.Sum / float64(prog.Latency.Count) * 1e3}
	}
	if !check {
		return res, prog, p, nil
	}
	want, err := in.reference()
	if err != nil {
		return nil, prog, nil, err
	}
	if len(res.Pairs) != len(want.Pairs) {
		p.Failed = p.Ops
		return res, prog, p, fmt.Errorf("mesh negotiated %d pairs, serial reference %d", len(res.Pairs), len(want.Pairs))
	}
	for i := range res.Pairs {
		if !reflect.DeepEqual(res.Pairs[i].Reports, want.Pairs[i].Reports) {
			p.Failed = p.Ops
			return res, prog, p, fmt.Errorf("pair (%d,%d) differs from mesh.RunSerial", res.Pairs[i].I, res.Pairs[i].J)
		}
	}
	return res, prog, p, nil
}

func (in *meshInst) pass() (*passResult, error) {
	_, _, p, err := in.meshRun(in.opt, true)
	return p, err
}

func (in *meshInst) trace(t *tracer, ls *layerSet) (*passResult, error) {
	sp := t.begin("mesh.run")
	before := readProc()
	start := time.Now()
	res, prog, p, err := in.meshRun(in.opt, true)
	wall := time.Since(start)
	after := readProc()
	t.end(sp)
	if err != nil {
		return p, err
	}
	sessions := float64(max(res.Sessions, 1))
	ls.procReadings(before, after, int(res.Sessions))
	ls.value("mesh.startup_s", (wall - res.Elapsed).Seconds())
	ls.value("agentd.sessions_failed", float64(prog.SessionsFailed))
	ls.value("agentd.resyncs", float64(prog.Resyncs))
	ls.value("agentd.dial_retries", float64(prog.DialRetries))
	// Both ends of a session count its frames; phase time is what the
	// two ends spent blocked on the wire, summed.
	ls.value("nexitwire.hello_us", float64(prog.Wire.HelloUs)/sessions)
	ls.value("nexitwire.prefs_us", float64(prog.Wire.PrefsUs)/sessions)
	ls.value("nexitwire.propose_us", float64(prog.Wire.ProposeUs)/sessions)
	ls.value("nexitwire.commit_us", float64(prog.Wire.CommitUs)/sessions)
	ls.value("nexitwire.frames_per_session", float64(prog.Wire.FramesSent)/sessions)
	ls.value("nexitwire.bytes_per_session", float64(prog.Wire.BytesSent)/sessions)

	// One pair-epoch of the in-process reference: two serial runs that
	// differ only in epoch count, so dataset and table set-up cancel.
	serial := func(epochs int) (time.Duration, error) {
		o := in.opt
		o.Epochs = epochs
		sp := t.begin("mesh.run_serial")
		defer t.end(sp)
		start := time.Now()
		_, err := mesh.RunSerial(o)
		return time.Since(start), err
	}
	long, err := serial(in.opt.Epochs)
	if err != nil {
		return nil, err
	}
	short, err := serial(1)
	if err != nil {
		return nil, err
	}
	pairs := len(res.Pairs)
	epochUs := 0.0
	if in.opt.Epochs > 1 {
		epochUs = us(long-short) / float64((in.opt.Epochs-1)*pairs)
	}
	ls.value("continuous.serial_epoch_us", epochUs)
	// The share of the wire window that is not the negotiation itself,
	// given that min(pairs, nproc) sessions can run at once.
	lanes := float64(min(pairs, workersCap()))
	ls.value("agentd.overhead_share", 1-epochUs*sessions/(us(res.Elapsed)*lanes))

	single := in.opt
	single.MaxPairs = 1
	sp = t.begin("mesh.run")
	one, _, _, err := in.meshRun(single, false)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	ls.value("agentd.parallel_efficiency", res.SessionsPerSec/(float64(pairs)*one.SessionsPerSec))
	return p, nil
}

var mesh2 = &workload{
	name:  "mesh2",
	why:   "two agentd pairs renegotiating over loopback TCP: the daemon path end to end (epoch loop, controller, dial/accept, telemetry, wire), two connections on two cores",
	opsAs: "sessions_per_s", latAs: "session_ms_mean",
	layers: append([]string{"mesh.startup_s", "agentd.overhead_share", "agentd.parallel_efficiency", "agentd.sessions_failed",
		"agentd.resyncs", "agentd.dial_retries", "nexitwire.hello_us", "nexitwire.prefs_us", "nexitwire.propose_us",
		"nexitwire.commit_us", "nexitwire.frames_per_session", "nexitwire.bytes_per_session",
		"continuous.serial_epoch_us"}, procLayers...),
	setupReps: 3,
	setup: func(c *config) (instance, error) {
		// mesh.Options.Seed roots the mesh's dataset as well as its drift
		// streams, and two pairs of another 14-ISP universe are another
		// workload: the mesh runs seed 1 whatever --seed says.
		in := &meshInst{opt: mesh.Options{
			NumISPs: 14, Seed: 1, MaxPairs: min(2, workersCap()), Sessions: 1,
			Epochs: c.Scale.MeshEpochs, UseTCP: true, Timeout: wireTimeout,
		}}
		cfg := universe(in.opt.NumISPs)
		isps, err := gen.GenerateWorkers(cfg, workersCap())
		if err != nil {
			return nil, err
		}
		in.sha, err = workloadDigest(isps, struct {
			Workload                            string
			NumISPs, MaxPairs, Sessions, Epochs int
			Seed                                int64
			UseTCP                              bool
		}{"mesh2", in.opt.NumISPs, in.opt.MaxPairs, in.opt.Sessions, in.opt.Epochs, in.opt.Seed, in.opt.UseTCP})
		if err != nil {
			return nil, err
		}
		if _, _, _, err := in.meshRun(in.opt, false); err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		return in, nil
	},
}

// wire_small and wire_large: one initiator/responder pair on one
// reused loopback-TCP connection, one client.

type wireInst struct {
	sha      string
	sessions int // per pass
	probes   int // Prefs calls per evaluator probe; 0 = no probe
	sys      *pairsim.System
	items    []nexit.Item
	defaults []int
	numAlts  int

	ln     net.Listener
	cA, cB *nexitwire.Conn
	ini    *nexitwire.Initiator
	served chan error    // the responder loop's exit
	want   *nexit.Result // in-process nexit.Negotiate on the same table
	wantSH string
}

func (in *wireInst) digest() string { return in.sha }

// close hangs up and waits for the responder loop to end.
func (in *wireInst) close() error {
	err := in.cA.Close()
	if serveErr := <-in.served; err == nil {
		err = serveErr
	}
	in.cB.Close()
	in.ln.Close()
	return err
}

// connect dials the pair's one connection and starts the responder
// loop, which serves sessions until the initiator hangs up.
func (in *wireInst) connect() error {
	var err error
	if in.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	accepted := make(chan net.Conn, 1)
	acceptErr := make(chan error, 1)
	go func() {
		c, err := in.ln.Accept()
		if err != nil {
			acceptErr <- err
			return
		}
		accepted <- c
	}()
	connA, err := net.Dial("tcp", in.ln.Addr().String())
	if err != nil {
		in.ln.Close()
		return err
	}
	var connB net.Conn
	select {
	case connB = <-accepted:
	case err := <-acceptErr:
		connA.Close()
		in.ln.Close()
		return err
	}
	in.cA, in.cB = nexitwire.NewConn(connA), nexitwire.NewConn(connB)
	resp := &nexitwire.Responder{
		Name: "agent-b", Eval: nexit.NewDistanceEvaluator(in.sys, nexit.SideB, prefBound),
		Items: in.items, Defaults: in.defaults, NumAlts: in.numAlts, Timeout: wireTimeout,
	}
	in.served = make(chan error, 1)
	go func() {
		for {
			hello, err := nexitwire.AcceptHelloConn(in.cB, wireTimeout)
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
					err = nil
				}
				in.served <- err
				return
			}
			if _, err := resp.ServeSessionConn(in.cB, hello); err != nil {
				in.served <- err
				return
			}
		}
	}()
	return nil
}

// run runs n sessions back to back, each under a span, and returns
// each one's latency and result. eval is the initiator's evaluator.
func (in *wireInst) run(t *tracer, n int, eval nexit.Evaluator) ([]float64, []*nexit.Result, error) {
	in.ini.Eval = eval
	lats := make([]float64, 0, n)
	results := make([]*nexit.Result, 0, n)
	for i := 0; i < n; i++ {
		sp := t.begin("session")
		start := time.Now()
		res, err := in.ini.RunConn(in.cA, in.items, in.defaults, in.numAlts)
		lats = append(lats, ms(time.Since(start)))
		t.end(sp)
		if err != nil {
			return lats, results, fmt.Errorf("session %d: %w", i, err)
		}
		results = append(results, res)
	}
	return lats, results, nil
}

// check counts the sessions whose result is not the in-process one.
func (in *wireInst) check(results []*nexit.Result) int {
	failed := 0
	for _, r := range results {
		if !reflect.DeepEqual(r, in.want) {
			failed++
		}
	}
	return failed
}

func (in *wireInst) pass() (*passResult, error) {
	lats, results, err := in.run(nil, in.sessions, nexit.NewDistanceEvaluator(in.sys, nexit.SideA, prefBound))
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, l := range lats {
		total += l
	}
	p := &passResult{Ops: len(lats), Failed: in.check(results), Rate: float64(len(lats)) / (total / 1e3), LatMs: lats, SHA: in.wantSH}
	if p.Failed > 0 {
		return p, fmt.Errorf("%d of %d sessions differ from in-process nexit.Negotiate", p.Failed, p.Ops)
	}
	return p, nil
}

func (in *wireInst) trace(t *tracer, ls *layerSet) (*passResult, error) {
	n := 2 * in.sessions
	evalA := nexit.NewDistanceEvaluator(in.sys, nexit.SideA, prefBound)

	// Untraced sessions, bracketed by the process counters: latency
	// tail, allocations (both ends) and the connection's own wire stats.
	in.cA.TakeStats()
	before := readProc()
	lats, results, err := in.run(nil, n, evalA)
	after := readProc()
	if err != nil {
		return nil, err
	}
	wire := in.cA.TakeStats()
	failed := in.check(results)
	ls.procReadings(before, after, n)
	sessions := float64(n)
	ls.value("nexitwire.allocs_per_session", float64(after.mallocs-before.mallocs)/sessions)
	ls.value("nexitwire.hello_us", float64(wire.HelloNanos)/1e3/sessions)
	ls.value("nexitwire.prefs_us", float64(wire.PrefsNanos)/1e3/sessions)
	ls.value("nexitwire.propose_us", float64(wire.ProposeNanos)/1e3/sessions)
	ls.value("nexitwire.commit_us", float64(wire.CommitNanos)/1e3/sessions)
	ls.value("nexitwire.frames_per_session", float64(wire.FramesSent+wire.FramesRecv)/sessions)
	ls.value("nexitwire.bytes_per_session", float64(wire.BytesSent+wire.BytesRecv)/sessions)
	ls.samples("nexitwire.session_ms_p90", lats, 0.9)
	ls.samples("nexitwire.session_ms_p99", lats, 0.99)

	// The same table negotiated in-process.
	var local []float64
	evalB := nexit.NewDistanceEvaluator(in.sys, nexit.SideB, prefBound)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := nexit.Negotiate(in.ini.Cfg, evalA, evalB, in.items, in.defaults, in.numAlts); err != nil {
			return nil, err
		}
		local = append(local, ms(time.Since(start)))
	}
	ls.median("nexit.negotiate_ms_p50", local)
	ls.value("nexitwire.overhead_ms_p50", median(lats)-median(local))

	// Traced sessions: a span per session, the initiator's evaluator
	// timed from outside, the wire's blocking time from the connection.
	rp := &replica{t: t}
	tracedLats, results, err := in.run(t, n, rp.wrap(evalA))
	if err != nil {
		return nil, err
	}
	wire = in.cA.TakeStats()
	failed += in.check(results)
	self := t.selfByName()
	total := 0.0
	for _, l := range tracedLats {
		total += l / 1e3
	}
	wireS := float64(wire.HelloNanos+wire.PrefsNanos+wire.ProposeNanos+wire.CommitNanos) / 1e9
	ls.value("nexitwire.wire_share", wireS/total)
	ls.value("nexit.prefs_share", self["nexit.prefs"]/total)
	ls.value("nexit.commit_share", (self["nexit.commit"]+self["nexit.revert"])/total)
	// What is left of a session is the initiator's engine: the batched
	// round loop and its proposal scan.
	ls.value("nexit.engine_share", (self["session"]-wireS)/total)
	ls.value("proc.trace_overhead_share", median(tracedLats)/median(lats)-1)

	if in.probes > 0 {
		in.probePrefs(ls)
	}
	p := &passResult{Ops: 2 * n, Failed: failed, SHA: in.wantSH}
	if failed > 0 {
		return p, fmt.Errorf("%d of %d sessions differ from in-process nexit.Negotiate", failed, p.Ops)
	}
	return p, nil
}

// probePrefs measures steady-state Prefs on this pair's table for each
// evaluator family: rows (items) per second, and allocations per call
// over all three (the scratch-reuse contract says none).
func (in *wireInst) probePrefs(ls *layerSet) {
	links := len(in.sys.Pair.A.Links)
	ones := make([]float64, links)
	for i := range ones {
		ones[i] = 1
	}
	// Load evaluators see one direction, like a failure case does.
	var ab []nexit.Item
	var abDefaults []int
	for i, it := range in.items {
		if it.Dir == nexit.AtoB {
			ab = append(ab, it)
			abDefaults = append(abDefaults, in.defaults[i])
		}
	}
	calls, allocs := 0, uint64(0)
	for _, probe := range []struct {
		metric   string
		eval     nexit.Evaluator
		items    []nexit.Item
		defaults []int
	}{
		{"nexit.prefs_rows_per_s.distance", nexit.NewDistanceEvaluator(in.sys, nexit.SideA, prefBound), in.items, in.defaults},
		{"nexit.prefs_rows_per_s.bandwidth", nexit.NewBandwidthEvaluator(in.sys, nexit.SideA, prefBound, make([]float64, links), ones), ab, abDefaults},
		{"nexit.prefs_rows_per_s.fortz-thorup", nexit.NewFortzThorupEvaluator(in.sys, nexit.SideA, prefBound, make([]float64, links), ones), ab, abDefaults},
	} {
		probe.eval.Prefs(probe.items, probe.defaults) // warm the evaluator's scratch
		before := readProc()
		start := time.Now()
		for i := 0; i < in.probes; i++ {
			probe.eval.Prefs(probe.items, probe.defaults)
		}
		elapsed := time.Since(start)
		allocs += readProc().mallocs - before.mallocs
		calls += in.probes
		ls.value(probe.metric, float64(len(probe.items)*in.probes)/elapsed.Seconds())
	}
	ls.value("nexit.prefs_allocs_per_call", float64(allocs)/float64(calls))
}

// wireLayers are the per-layer metrics both wire workloads report.
var wireLayers = append([]string{"nexitwire.hello_us", "nexitwire.prefs_us", "nexitwire.propose_us", "nexitwire.commit_us",
	"nexitwire.frames_per_session", "nexitwire.bytes_per_session", "nexitwire.allocs_per_session",
	"nexitwire.overhead_ms_p50", "nexitwire.session_ms_p90", "nexitwire.session_ms_p99", "nexitwire.wire_share",
	"nexit.negotiate_ms_p50", "nexit.prefs_share", "nexit.commit_share", "nexit.engine_share",
	"proc.trace_overhead_share"}, procLayers...)

// setupWire builds the session pair on the q-quantile pair of the
// 65-ISP dataset's distance pairs, ordered by (items, index).
func setupWire(name string, q float64, sessions, warmup, probes int) (instance, error) {
	ds, err := experiments.LoadWorkers(universe(0), workersCap())
	if err != nil {
		return nil, err
	}
	pairs := ds.DistancePairs()
	size := func(p *topology.Pair) int { return 2 * p.A.NumPoPs() * p.B.NumPoPs() }
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return size(pairs[order[a]]) < size(pairs[order[b]]) })
	index := order[int(q*float64(len(pairs)-1))]
	pair := pairs[index]

	in := &wireInst{sessions: sessions, probes: probes, sys: pairsim.New(pair, ds.Cache)}
	rev := in.sys.Reverse()
	wAB := traffic.New(pair.A, pair.B, traffic.Identical, nil)
	wBA := traffic.New(pair.B, pair.A, traffic.Identical, nil)
	in.items = nexit.Items(wAB.Flows, wBA.Flows)
	in.defaults = make([]int, len(in.items))
	for i, it := range in.items {
		if it.Dir == nexit.AtoB {
			in.defaults[i] = in.sys.EarlyExit(it.Flow)
		} else {
			in.defaults[i] = rev.EarlyExit(it.Flow)
		}
	}
	in.numAlts = in.sys.NumAlternatives()
	in.sha, err = workloadDigest(ds.ISPs, struct {
		Workload                 string
		Pair, Items, Alts, Batch int
	}{name, index, len(in.items), in.numAlts, sessions})
	if err != nil {
		return nil, err
	}

	in.ini = &nexitwire.Initiator{Name: "agent-a", Cfg: nexit.DefaultDistanceConfig(), Timeout: wireTimeout}
	in.want, err = nexit.Negotiate(in.ini.Cfg,
		nexit.NewDistanceEvaluator(in.sys, nexit.SideA, prefBound),
		nexit.NewDistanceEvaluator(in.sys, nexit.SideB, prefBound),
		in.items, in.defaults, in.numAlts)
	if err != nil {
		return nil, err
	}
	out, err := json.Marshal(in.want)
	if err != nil {
		return nil, err
	}
	in.wantSH = sha256Hex(out)
	if err := in.connect(); err != nil {
		return nil, err
	}
	if _, _, err := in.run(nil, warmup, nexit.NewDistanceEvaluator(in.sys, nexit.SideA, prefBound)); err != nil {
		in.close()
		return nil, fmt.Errorf("warm-up sessions: %w", err)
	}
	return in, nil
}

var wireSmall = &workload{
	name:  "wire_small",
	why:   "one nexitwire session pair on the median-sized table (832 items x 2 alternatives): hello and prefs frames dominate, the engine does little",
	opsAs: "sessions_per_s", latAs: "session_ms_p50",
	layers:    wireLayers,
	setupReps: 5,
	setup: func(c *config) (instance, error) {
		return setupWire("wire_small", 0.5, c.Scale.WireSmallSessions, c.Scale.WireWarmup, 0)
	},
}

var wireLarge = &workload{
	name:  "wire_large",
	why:   "the same session loop on the 0.95-quantile table (1920 items x 7 alternatives): the batched round loop and its scan are nearly all of a session, the wire under 3%",
	opsAs: "sessions_per_s", latAs: "session_ms_p50",
	layers: append([]string{"nexit.prefs_rows_per_s.distance", "nexit.prefs_rows_per_s.bandwidth",
		"nexit.prefs_rows_per_s.fortz-thorup", "nexit.prefs_allocs_per_call"}, wireLayers...),
	setupReps: 5,
	setup: func(c *config) (instance, error) {
		return setupWire("wire_large", 0.95, c.Scale.WireLargeSessions, max(c.Scale.WireWarmup/10, 1), c.Scale.PrefsProbeCalls)
	},
}

// recover: a controller lives, snapshotting as it goes; fresh ones then
// recover its state from the newest snapshot.

type recoverInst struct {
	sha    string
	sc     scale
	sys    *pairsim.System
	dir    string // scratch directory for the snapshot stores
	passes int
}

func (in *recoverInst) digest() string { return in.sha }
func (in *recoverInst) close() error   { return os.RemoveAll(in.dir) }

// driftSeed roots recover's drift streams at every --seed, as
// BenchmarkSeekEpochFromSnapshot's does. The cost of an epoch is bimodal
// in it: drift seeds 2, 8 and 14 run the same 400 epochs, with the same
// number of negotiated flows, 1.8x slower than seeds 1, 3 and 16, so
// runs that differ only in seed would not be runs of one workload.
const driftSeed = 1

// workloads is the epoch traffic of BenchmarkSeekEpochFromSnapshot:
// gravity base traffic rebuilt and drifted by 0.25 every epoch, from a
// random stream keyed by (driftSeed, epoch).
func (in *recoverInst) workloads(t *tracer) continuous.WorkloadFunc {
	return func(epoch int) (*traffic.Workload, *traffic.Workload) {
		sp := t.begin("traffic.new")
		baseAB := traffic.New(in.sys.Pair.A, in.sys.Pair.B, traffic.Gravity, nil)
		baseBA := traffic.New(in.sys.Pair.B, in.sys.Pair.A, traffic.Gravity, nil)
		t.end(sp)
		rng := runner.PairRand(driftSeed, epoch)
		return continuous.Drift(baseAB, 0.25, rng), continuous.Drift(baseBA, 0.25, rng)
	}
}

// recovered is what one pass leaves behind for the traced run's probes.
type recovered struct {
	store *snapshot.Store
	state []byte // snapshot.Encode of the lived controller
}

// livedAndRecovered runs one pass: the lived phase (epochs and saves),
// then the recoveries, each checked byte for byte against the lived
// controller outside its timed window.
func (in *recoverInst) livedAndRecovered(t *tracer) (*passResult, *recovered, error) {
	in.passes++
	store, err := snapshot.NewStore(fmt.Sprintf("%s/pass%d", in.dir, in.passes), 0)
	if err != nil {
		return nil, nil, err
	}
	wl := in.workloads(t)
	epochs, interval := in.sc.RecoverEpochs, in.sc.RecoverInterval
	newest := epochs - interval

	root := t.begin("lived")
	start := time.Now()
	lived := continuous.New(in.sys, prefBound)
	for epoch := 0; epoch < epochs; epoch++ {
		wAB, wBA := wl(epoch)
		sp := t.begin("continuous.epoch")
		_, err := lived.Epoch(wAB, wBA)
		t.end(sp)
		if err != nil {
			t.end(root)
			return nil, nil, err
		}
		if idx := lived.EpochIndex(); idx%interval == 0 && idx <= newest {
			sp := t.begin("continuous.snapshot")
			st := lived.Snapshot()
			t.end(sp)
			sp = t.begin("snapshot.save")
			err := store.Save("bench", st)
			t.end(sp)
			if err != nil {
				t.end(root)
				return nil, nil, err
			}
		}
	}
	livedFor := time.Since(start)
	t.end(root)

	want, err := snapshot.Encode(lived.Snapshot())
	if err != nil {
		return nil, nil, err
	}
	p := &passResult{Ops: epochs + in.sc.RecoverSeeks, Rate: float64(epochs) / livedFor.Seconds(), SHA: sha256Hex(want)}
	src := store.Peer("bench")
	for i := 0; i < in.sc.RecoverSeeks; i++ {
		c := continuous.New(in.sys, prefBound)
		sp := t.begin("continuous.seek")
		start := time.Now()
		restored, err := c.SeekEpochFrom(epochs, wl, src)
		took := time.Since(start)
		t.end(sp)
		got, encErr := snapshot.Encode(c.Snapshot())
		if err != nil || encErr != nil || restored != newest || !bytes.Equal(got, want) {
			p.Failed++
			continue
		}
		p.LatMs = append(p.LatMs, ms(took))
	}
	if p.Failed > 0 {
		return p, nil, fmt.Errorf("%d of %d recoveries did not reproduce the lived controller from the epoch-%d snapshot", p.Failed, in.sc.RecoverSeeks, newest)
	}
	return p, &recovered{store: store, state: want}, nil
}

func (in *recoverInst) pass() (*passResult, error) {
	p, _, err := in.livedAndRecovered(nil)
	return p, err
}

func (in *recoverInst) trace(t *tracer, ls *layerSet) (*passResult, error) {
	before := readProc()
	plain, _, err := in.livedAndRecovered(nil)
	after := readProc()
	if err != nil {
		return plain, err
	}
	ls.procReadings(before, after, plain.Ops)
	ls.samples("continuous.recover_ms_p90", plain.LatMs, 0.9)

	p, rec, err := in.livedAndRecovered(t)
	if err != nil {
		return p, err
	}
	if p.SHA != plain.SHA {
		p.Failed = p.Ops
		return p, fmt.Errorf("traced pass state %s differs from untraced %s", p.SHA, plain.SHA)
	}
	ls.value("proc.trace_overhead_share", plain.Rate/p.Rate-1)
	ls.median("continuous.epoch_us_p50", t.durations("continuous.epoch", time.Microsecond))
	ls.median("traffic.new_us_p50", t.durations("traffic.new", time.Microsecond))
	ls.median("snapshot.save_ms_p50", t.durations("snapshot.save", time.Millisecond))
	ls.value("continuous.replayed_epochs_per_recover", float64(in.sc.RecoverInterval))
	ls.value("snapshot.bytes", float64(len(rec.state)))

	// Codec and store probes on the lived controller's final state.
	st, err := snapshot.Decode(rec.state)
	if err != nil {
		return p, err
	}
	var enc, dec, load []float64
	for i := 0; i < in.sc.RecoverSeeks; i++ {
		start := time.Now()
		data, err := snapshot.Encode(st)
		enc = append(enc, us(time.Since(start)))
		if err != nil {
			return p, err
		}
		start = time.Now()
		_, err = snapshot.Decode(data)
		dec = append(dec, us(time.Since(start)))
		if err != nil {
			return p, err
		}
		start = time.Now()
		_, err = rec.store.LoadLatest("bench", in.sc.RecoverEpochs)
		load = append(load, ms(time.Since(start)))
		if err != nil {
			return p, err
		}
	}
	ls.median("snapshot.encode_us_p50", enc)
	ls.median("snapshot.decode_us_p50", dec)
	ls.median("snapshot.load_ms_p50", load)

	// What recovery would cost without a snapshot.
	sp := t.begin("continuous.seek_full")
	err = continuous.New(in.sys, prefBound).SeekEpoch(in.sc.RecoverEpochs, in.workloads(nil))
	ls.value("continuous.full_replay_ms", ms(t.end(sp)))
	return p, err
}

var recoverW = &workload{
	name:  "recover",
	why:   "crash recovery: a controller lives 400 epochs saving a snapshot every 20 (writes), then 60 fresh controllers restore the newest and replay the 20-epoch tail (reads)",
	opsAs: "epochs_per_s", latAs: "recover_ms_p50",
	layers: append([]string{"continuous.epoch_us_p50", "continuous.replayed_epochs_per_recover", "continuous.full_replay_ms",
		"continuous.recover_ms_p90", "snapshot.encode_us_p50", "snapshot.decode_us_p50", "snapshot.bytes",
		"snapshot.save_ms_p50", "snapshot.load_ms_p50", "traffic.new_us_p50", "proc.trace_overhead_share"}, procLayers...),
	setupReps: 3,
	setup: func(c *config) (instance, error) {
		isps, err := gen.GenerateWorkers(universe(10), workersCap())
		if err != nil {
			return nil, err
		}
		pairs := topology.AllPairs(isps, 2, true)
		if len(pairs) == 0 {
			return nil, errors.New("no eligible pair in the 10-ISP dataset")
		}
		in := &recoverInst{sc: c.Scale, sys: pairsim.New(pairs[0], nil)}
		in.sha, err = workloadDigest(isps, struct {
			Workload                string
			Seed                    int64
			Epochs, Interval, Seeks int
			Volatility              float64
		}{"recover", driftSeed, c.Scale.RecoverEpochs, c.Scale.RecoverInterval, c.Scale.RecoverSeeks, 0.25})
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(c.OutDir, 0o755); err != nil {
			return nil, err
		}
		if in.dir, err = os.MkdirTemp(c.OutDir, "recover-"); err != nil {
			return nil, err
		}
		if _, err := in.pass(); err != nil {
			in.close()
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		return in, nil
	},
}
