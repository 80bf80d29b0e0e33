package continuous

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/nexit"
	"repro/internal/pairsim"
	"repro/internal/snapshot"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// testISPs generates the 10-ISP universe the package's tests share.
func testISPs(t testing.TB) []*topology.ISP {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 10
	isps, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return isps
}

func testSystem(t testing.TB) *pairsim.System {
	t.Helper()
	pairs := topology.AllPairs(testISPs(t), 2, true)
	if len(pairs) == 0 {
		t.Fatal("no pairs")
	}
	return pairsim.New(pairs[0], nil)
}

func TestControllerEpochs(t *testing.T) {
	sys := testSystem(t)
	c := New(sys, 10)
	rng := rand.New(rand.NewSource(3))
	baseAB := traffic.New(sys.Pair.A, sys.Pair.B, traffic.Gravity, nil)
	baseBA := traffic.New(sys.Pair.B, sys.Pair.A, traffic.Gravity, nil)

	var lastApplied float64
	for epoch := 0; epoch < 6; epoch++ {
		wAB := Drift(baseAB, 0.3, rng)
		wBA := Drift(baseBA, 0.3, rng)
		rep, err := c.Epoch(wAB, wBA)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Epoch != epoch {
			t.Errorf("epoch counter = %d, want %d", rep.Epoch, epoch)
		}
		if rep.Observed != len(wAB.Flows)+len(wBA.Flows) {
			t.Errorf("observed %d flows, want %d", rep.Observed, len(wAB.Flows)+len(wBA.Flows))
		}
		// Applied routing is never worse than pure early-exit.
		if rep.DistanceApplied > rep.DistanceDefault*1.0001 {
			t.Errorf("epoch %d: applied distance %.0f exceeds default %.0f",
				epoch, rep.DistanceApplied, rep.DistanceDefault)
		}
		lastApplied = rep.DistanceApplied
		if epoch == 0 && rep.Negotiated != 0 {
			t.Errorf("epoch 0 negotiated %d flows before stability window", rep.Negotiated)
		}
		if epoch >= 2 && rep.Negotiated == 0 {
			t.Errorf("epoch %d: registry never promoted flows", epoch)
		}
	}
	if lastApplied == 0 {
		t.Error("no distance accounted")
	}
}

func TestControllerImprovesSteadyState(t *testing.T) {
	sys := testSystem(t)
	c := New(sys, 10)
	wAB := traffic.New(sys.Pair.A, sys.Pair.B, traffic.Gravity, nil)
	wBA := traffic.New(sys.Pair.B, sys.Pair.A, traffic.Gravity, nil)
	var first, last *EpochReport
	for epoch := 0; epoch < 4; epoch++ {
		rep, err := c.Epoch(wAB, wBA)
		if err != nil {
			t.Fatal(err)
		}
		if epoch == 0 {
			first = rep
		}
		last = rep
	}
	if first.DistanceApplied != first.DistanceDefault {
		t.Error("before any negotiation the applied routing should equal early-exit")
	}
	if last.DistanceApplied >= last.DistanceDefault {
		t.Errorf("steady state: applied %.0f not better than default %.0f",
			last.DistanceApplied, last.DistanceDefault)
	}
}

// TestMetricEpochsDeterministic runs every supported metric through
// several drifting epochs twice and requires identical trajectories —
// the determinism the wire parity tests build on — plus real
// negotiation once the registry warms up.
func TestMetricEpochsDeterministic(t *testing.T) {
	sys := testSystem(t)
	for _, metric := range Metrics() {
		t.Run(string(metric), func(t *testing.T) {
			run := func() []*EpochReport {
				c, err := NewWithMetric(sys, 10, metric, nil)
				if err != nil {
					t.Fatal(err)
				}
				if c.Metric != metric {
					t.Fatalf("controller metric = %q, want %q", c.Metric, metric)
				}
				rng := rand.New(rand.NewSource(7))
				baseAB := traffic.New(sys.Pair.A, sys.Pair.B, traffic.Gravity, nil)
				baseBA := traffic.New(sys.Pair.B, sys.Pair.A, traffic.Gravity, nil)
				var reps []*EpochReport
				for epoch := 0; epoch < 5; epoch++ {
					rep, err := c.Epoch(Drift(baseAB, 0.3, rng), Drift(baseBA, 0.3, rng))
					if err != nil {
						t.Fatal(err)
					}
					reps = append(reps, rep)
				}
				return reps
			}
			first, second := run(), run()
			negotiated := false
			for e := range first {
				if !reflect.DeepEqual(first[e], second[e]) {
					t.Errorf("epoch %d not deterministic:\n  %+v\n  %+v", e, first[e], second[e])
				}
				if first[e].Negotiated > 0 {
					negotiated = true
				}
			}
			if !negotiated {
				t.Error("registry never promoted a flow; the metric was not exercised")
			}
		})
	}
}

// epochWorkloads is a deterministic per-epoch workload source: the
// drift stream is keyed by the epoch index alone, as SeekEpoch's replay
// contract requires.
func epochWorkloads(sys *pairsim.System) WorkloadFunc {
	baseAB := traffic.New(sys.Pair.A, sys.Pair.B, traffic.Gravity, nil)
	baseBA := traffic.New(sys.Pair.B, sys.Pair.A, traffic.Gravity, nil)
	return func(epoch int) (*traffic.Workload, *traffic.Workload) {
		rng := rand.New(rand.NewSource(int64(epoch)*2654435761 + 11))
		return Drift(baseAB, 0.3, rng), Drift(baseBA, 0.3, rng)
	}
}

// TestSeekEpochReplaysExactly is the fast-forward rule: a fresh
// controller sought to epoch k must be indistinguishable — report for
// report — from one that lived through epochs 0..k-1, for every metric.
func TestSeekEpochReplaysExactly(t *testing.T) {
	sys := testSystem(t)
	for _, metric := range Metrics() {
		t.Run(string(metric), func(t *testing.T) {
			wl := epochWorkloads(sys)
			const seek, total = 3, 6

			lived, err := NewWithMetric(sys, 10, metric, nil)
			if err != nil {
				t.Fatal(err)
			}
			var want []*EpochReport
			for epoch := 0; epoch < total; epoch++ {
				rep, err := lived.Epoch(wl(epoch))
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, rep)
			}

			sought, err := NewWithMetric(sys, 10, metric, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sought.SeekEpoch(seek, wl); err != nil {
				t.Fatal(err)
			}
			if got := sought.EpochIndex(); got != seek {
				t.Fatalf("sought controller is at epoch %d, want %d", got, seek)
			}
			// Everything after the seek point must match the lived-through
			// controller exactly: registry, ledger, and applied state were
			// reconstructed, not just the counter.
			for epoch := seek; epoch < total; epoch++ {
				rep, err := sought.Epoch(wl(epoch))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rep, want[epoch]) {
					t.Errorf("epoch %d after seek diverged:\n  sought %+v\n  lived  %+v", epoch, rep, want[epoch])
				}
			}
			if sought.Ledger.Balance != lived.Ledger.Balance {
				t.Errorf("ledger balance %d after seek, lived-through %d", sought.Ledger.Balance, lived.Ledger.Balance)
			}
		})
	}
}

// TestSeekEpochGuards pins the edges: seeking to the current epoch is a
// no-op and seeking backwards is an error.
func TestSeekEpochGuards(t *testing.T) {
	sys := testSystem(t)
	c := New(sys, 10)
	wl := epochWorkloads(sys)
	if err := c.SeekEpoch(0, wl); err != nil || c.EpochIndex() != 0 {
		t.Errorf("seek to current epoch: err=%v, index=%d", err, c.EpochIndex())
	}
	if err := c.SeekEpoch(2, wl); err != nil {
		t.Fatal(err)
	}
	if c.EpochIndex() != 2 {
		t.Errorf("seek stopped at epoch %d, want 2", c.EpochIndex())
	}
	if err := c.SeekEpoch(1, wl); err == nil {
		t.Error("seek backwards succeeded")
	}
}

// encoded is the controller's whole mutable state as snapshot bytes.
func encoded(t *testing.T, c *Controller) []byte {
	t.Helper()
	b, err := snapshot.Encode(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFailedNegotiatorLeavesControllerUnchanged passes EpochVia a
// negotiator that fails, as a wire session does when the peer stalls,
// aborts or is rejected: the error surfaces labelled with the epoch, and
// the controller — registry, ledger, installed paths, epoch index — is
// byte for byte what it was, at an epoch with nothing tracked yet, with
// flows tracked, and with flows installed. agentd's runSession relies on
// this in both roles: it retries, resyncs or restores on top of a failed
// session without repairing anything first. The retry then reports what
// a controller that never failed reports.
func TestFailedNegotiatorLeavesControllerUnchanged(t *testing.T) {
	sys := testSystem(t)
	wl := epochWorkloads(sys)
	boom := errors.New("peer went away")
	failing := func(nexit.Config, []nexit.Item, []int, int) (*nexit.Result, error) { return nil, boom }
	lived := New(sys, 10)
	for at := 0; at < 4; at++ {
		c := New(sys, 10)
		if err := c.SeekEpoch(at, wl); err != nil {
			t.Fatal(err)
		}
		before := encoded(t, c)
		wAB, wBA := wl(at)
		_, err := c.EpochVia(failing, wAB, wBA)
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), fmt.Sprintf("continuous: epoch %d:", at)) {
			t.Fatalf("epoch %d: error = %v, want the negotiator's, labelled", at, err)
		}
		if c.EpochIndex() != at {
			t.Errorf("epoch %d advanced to %d on a failed negotiation", at, c.EpochIndex())
		}
		if !bytes.Equal(encoded(t, c), before) {
			t.Errorf("epoch %d: a failed negotiation changed the controller's state", at)
		}
		want, err := lived.Epoch(wAB, wBA)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := c.Epoch(wAB, wBA); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("epoch %d retried after the failure:\n  got  %+v (%v)\n  want %+v", at, got, err, want)
		}
	}
}

// TestMetricConfig pins the per-metric engine configuration and the
// metric name round-trip.
func TestMetricConfig(t *testing.T) {
	sys := testSystem(t)
	for _, tc := range []struct {
		metric   Metric
		reassign float64
	}{
		{MetricDistance, 0},
		{MetricBandwidth, 0.05},
		{MetricFortzThorup, 0.05},
	} {
		c, err := NewWithMetric(sys, 10, tc.metric, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.Cfg.ReassignFraction != tc.reassign {
			t.Errorf("%s: ReassignFraction = %v, want %v", tc.metric, c.Cfg.ReassignFraction, tc.reassign)
		}
		if got, err := ParseMetric(string(tc.metric)); err != nil || got != tc.metric {
			t.Errorf("ParseMetric(%q) = %q, %v", tc.metric, got, err)
		}
	}
	if m, err := ParseMetric(""); err != nil || m != MetricDistance {
		t.Errorf("ParseMetric(\"\") = %q, %v; want distance", m, err)
	}
	if _, err := ParseMetric("latency"); err == nil {
		t.Error("ParseMetric accepted an unknown metric")
	}
	if New(sys, 10).Metric != MetricDistance {
		t.Error("New did not default to the distance metric")
	}
}

func TestDrift(t *testing.T) {
	sys := testSystem(t)
	w := traffic.New(sys.Pair.A, sys.Pair.B, traffic.Identical, nil)
	rng := rand.New(rand.NewSource(1))
	d := Drift(w, 0.5, rng)
	if len(d.Flows) != len(w.Flows) {
		t.Fatal("drift changed flow count")
	}
	changed := 0
	for i := range d.Flows {
		if d.Flows[i].Size != w.Flows[i].Size {
			changed++
		}
		if d.Flows[i].Size <= 0 {
			t.Error("drift produced non-positive size")
		}
		if d.Flows[i].Src != w.Flows[i].Src || d.Flows[i].Dst != w.Flows[i].Dst {
			t.Error("drift changed endpoints")
		}
	}
	if changed == 0 {
		t.Error("drift changed nothing")
	}
	// Original untouched.
	if w.Flows[0].Size != 1 {
		t.Error("drift mutated the input workload")
	}
}

// TestCapacityCacheShared pins the shared base-capacity path: both
// endpoints of a pair (and a "restarted" controller) draw the exact
// capacity vector instances from one cache, concurrent construction is
// exactly-once (run under -race), and cached controllers negotiate
// identically to uncached ones.
func TestCapacityCacheShared(t *testing.T) {
	sys := testSystem(t)
	caps := NewCapacityCache()

	// Race many controller constructions on the same pair.
	ctls := make([]*Controller, 8)
	var wg sync.WaitGroup
	for g := range ctls {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := NewWithMetric(pairsim.New(sys.Pair, nil), 10, MetricBandwidth, caps)
			if err != nil {
				t.Error(err)
				return
			}
			ctls[g] = c
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(ctls); g++ {
		if &ctls[g].capA[0] != &ctls[0].capA[0] || &ctls[g].capB[0] != &ctls[0].capB[0] {
			t.Fatalf("controller %d derived its own capacity vectors; cache not shared", g)
		}
	}

	// Cached == uncached, vector by vector and epoch by epoch.
	plain, err := NewWithMetric(sys, 10, MetricBandwidth, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.capA, ctls[0].capA) || !reflect.DeepEqual(plain.capB, ctls[0].capB) {
		t.Fatal("cached capacities differ from uncached")
	}
	wAB := traffic.New(sys.Pair.A, sys.Pair.B, traffic.Gravity, nil)
	wBA := traffic.New(sys.Pair.B, sys.Pair.A, traffic.Gravity, nil)
	for epoch := 0; epoch < 3; epoch++ {
		a, err := plain.Epoch(wAB, wBA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ctls[0].Epoch(wAB, wBA)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("epoch %d: cached controller diverged from uncached", epoch)
		}
	}

	// Distance controllers don't touch the cache (no capacities).
	if c, err := NewWithMetric(sys, 10, MetricDistance, caps); err != nil || c.capA != nil {
		t.Fatalf("distance controller built capacities (err=%v)", err)
	}
}

// TestEpochRejectsForeignFlow: a workload naming a PoP the pair does not
// have is a labelled error and the epoch does not advance; the
// controller carries on with the next good workload.
func TestEpochRejectsForeignFlow(t *testing.T) {
	sys := testSystem(t)
	wAB := traffic.New(sys.Pair.A, sys.Pair.B, traffic.Gravity, nil)
	wBA := traffic.New(sys.Pair.B, sys.Pair.A, traffic.Gravity, nil)
	nA, nB := len(sys.Pair.A.PoPs), len(sys.Pair.B.PoPs)
	if nA == nB {
		t.Fatal("test pair is square; a swapped direction would go unnoticed")
	}
	for name, f := range map[string]traffic.Flow{
		"src past A":   {Src: nA, Dst: 0, Size: 1},
		"dst past B":   {Src: 0, Dst: nB, Size: 1},
		"negative src": {Src: -1, Dst: 0, Size: 1},
		"negative dst": {Src: 0, Dst: -1, Size: 1},
	} {
		c := New(sys, 10)
		if _, err := c.Epoch(wAB, wBA); err != nil {
			t.Fatal(err)
		}
		bad := &traffic.Workload{Flows: append(append([]traffic.Flow(nil), wAB.Flows...), f)}
		before := encoded(t, c)
		_, err := c.Epoch(bad, wBA)
		if err == nil || !strings.Contains(err.Error(), "continuous: epoch 1:") {
			t.Errorf("%s: Epoch error = %v, want a labelled epoch-1 error", name, err)
		}
		if !bytes.Equal(encoded(t, c), before) {
			t.Errorf("%s: a rejected workload changed the controller's state", name)
		}
		if c.EpochIndex() != 1 {
			t.Errorf("%s: epoch advanced to %d on a rejected workload", name, c.EpochIndex())
		}
		if rep, err := c.Epoch(wAB, wBA); err != nil || rep.Epoch != 1 {
			t.Errorf("%s: controller did not carry on: %+v, %v", name, rep, err)
		}
	}
	// The B->A half of the table is B x A, not A x B: its corner flow is
	// accepted there and, the pair not being square, nowhere else.
	last := traffic.Flow{Src: nB - 1, Dst: nA - 1, Size: 1}
	c := New(sys, 10)
	if _, err := c.Epoch(&traffic.Workload{}, &traffic.Workload{Flows: []traffic.Flow{last}}); err != nil {
		t.Errorf("legal B->A corner flow rejected: %v", err)
	}
	if _, err := c.Epoch(&traffic.Workload{Flows: []traffic.Flow{last}}, &traffic.Workload{}); err == nil {
		t.Error("B->A corner flow accepted in the A->B direction")
	}
}

// TestExpiredFlowIsRetracked: a flow that idles past IdleTimeout drops
// out of the registry, and when it returns it is tracked afresh — it
// waits out the stability window again — while its installed path
// survives. The same history with the controller restored from its own
// snapshot mid-idle, after the expiry, and after the return must be
// report-for-report identical.
func TestExpiredFlowIsRetracked(t *testing.T) {
	sys := testSystem(t)
	wAB := traffic.New(sys.Pair.A, sys.Pair.B, traffic.Gravity, nil)
	wBA := traffic.New(sys.Pair.B, sys.Pair.A, traffic.Gravity, nil)
	big := 0
	for i, f := range wAB.Flows {
		if f.Size > wAB.Flows[big].Size {
			big = i
		}
	}
	idle := &traffic.Workload{Upstream: wAB.Upstream, Downstream: wAB.Downstream}
	idle.Flows = append(append(idle.Flows, wAB.Flows[:big]...), wAB.Flows[big+1:]...)
	// Seen through epoch 2, away for 3..7 (expires at 6, when 6-2 exceeds
	// the timeout of 3), back from 8.
	const away, expiry, back, total = 3, 6, 8, 11
	workloads := func(epoch int) (*traffic.Workload, *traffic.Workload) {
		if epoch >= away && epoch < back {
			return idle, wBA
		}
		return wAB, wBA
	}
	run := func(restoreAt int) ([]*EpochReport, []int) {
		c := New(sys, 10)
		var reps []*EpochReport
		var tracked []int
		for epoch := 0; epoch < total; epoch++ {
			if epoch == restoreAt {
				if err := c.RestoreSnapshot(c.Snapshot()); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := c.Epoch(workloads(epoch))
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
			tracked = append(tracked, len(c.Snapshot().Registry.Flows))
			if applied := len(c.Snapshot().Applied); epoch >= away && applied != reps[away-1].Negotiated {
				t.Errorf("restore at %d, epoch %d: %d installed paths, want the %d negotiated before the flow left",
					restoreAt, epoch, applied, reps[away-1].Negotiated)
			}
		}
		return reps, tracked
	}

	reps, tracked := run(-1)
	all := len(wAB.Flows) + len(wBA.Flows)
	full := reps[away-1].Negotiated
	for epoch, rep := range reps {
		wantExpired, wantTracked, wantNegotiated := 0, all, full
		switch {
		case epoch == 0:
			wantNegotiated = 0 // nothing is stable yet
		case epoch >= away && epoch < expiry:
			wantNegotiated = full - 1 // idle but still tracked
		case epoch >= expiry && epoch < back:
			wantTracked, wantNegotiated = all-1, full-1
		case epoch == back:
			wantNegotiated = full - 1 // tracked afresh: not yet stable again
		}
		if epoch == expiry {
			wantExpired = 1
		}
		if rep.Expired != wantExpired || tracked[epoch] != wantTracked || rep.Negotiated != wantNegotiated {
			t.Errorf("epoch %d: expired %d, tracked %d, negotiated %d; want %d, %d, %d",
				epoch, rep.Expired, tracked[epoch], rep.Negotiated, wantExpired, wantTracked, wantNegotiated)
		}
	}
	for _, restoreAt := range []int{away + 1, expiry + 1, back + 1} {
		got, gotTracked := run(restoreAt)
		if !reflect.DeepEqual(got, reps) || !reflect.DeepEqual(gotTracked, tracked) {
			t.Errorf("restoring at epoch %d changed the history", restoreAt)
		}
	}
}

// TestEpochAllocsIndependentOfFlows guards the flow table: with the
// negotiation stubbed out, what an epoch allocates (its report, the
// report's assignment copy, ledger history growth) does not depend on
// how many flows it observed — no per-flow map entry, set or sort.
func TestEpochAllocsIndependentOfFlows(t *testing.T) {
	sys := testSystem(t)
	wAB := traffic.New(sys.Pair.A, sys.Pair.B, traffic.Gravity, nil)
	wBA := traffic.New(sys.Pair.B, sys.Pair.A, traffic.Gravity, nil)
	few, none := &traffic.Workload{}, &traffic.Workload{}
	for _, f := range wAB.Flows {
		if f.Size >= 1 && len(few.Flows) < 8 { // above the registry's threshold
			few.Flows = append(few.Flows, f)
		}
	}
	if len(wAB.Flows)+len(wBA.Flows) < 40*len(few.Flows) {
		t.Fatalf("test pair has only %d flows", len(wAB.Flows)+len(wBA.Flows))
	}
	perEpoch := func(wAB, wBA *traffic.Workload) float64 {
		c := New(sys, 10)
		res := &nexit.Result{}
		negotiated := 0
		stub := func(cfg nexit.Config, items []nexit.Item, defaults []int, numAlts int) (*nexit.Result, error) {
			negotiated = len(items)
			res.Assign = defaults
			return res, nil
		}
		epoch := func() {
			if _, err := c.EpochVia(stub, wAB, wBA); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ { // track and promote every flow, size the scratch
			epoch()
		}
		if negotiated == 0 {
			t.Fatal("no flow reached the table")
		}
		return testing.AllocsPerRun(50, epoch)
	}
	small, large := perEpoch(few, none), perEpoch(wAB, wBA)
	if large > small+1 { // +1: the ledger history's amortised growth can round either way
		t.Errorf("an epoch over %d flows allocates %.0f times, over %d flows %.0f times",
			len(wAB.Flows)+len(wBA.Flows), large, len(few.Flows), small)
	}
}
