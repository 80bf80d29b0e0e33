package agentd

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/continuous"
	"repro/internal/nexit"
	"repro/internal/telemetry"
)

// TestStatusConcurrentWithFaultySessions drives epochs through dial
// retries, a mid-session connection kill, and a responder restart
// while hammering Status() and /metrics renders from other
// goroutines. Under -race this pins the snapshot contract: counters
// are monotone between successive reads, never torn, and at
// quiescence the per-peer latency histograms account for exactly the
// sessions the counters report.
func TestStatusConcurrentWithFaultySessions(t *testing.T) {
	const healthy, total = 2, 5
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	_, addr1, stop1 := newResponder(t, sys, wl)

	var addr atomic.Value
	addr.Store(addr1)
	var kill atomic.Bool
	var failFirstDial atomic.Bool
	a := New(Config{
		Name: "a", Timeout: 5 * time.Second,
		DialBackoff: time.Millisecond, Logf: t.Logf,
	})
	if err := a.AddPeer(Peer{
		Name: "b", Side: nexit.SideA, Ctl: continuous.New(sys, 10), Workloads: wl,
		Dial: func() (net.Conn, error) {
			if failFirstDial.CompareAndSwap(true, false) {
				return nil, net.ErrClosed // one flaky dial: exercises the retry counter
			}
			c, err := net.Dial("tcp", addr.Load().(string))
			if err != nil {
				return nil, err
			}
			return &flakyConn{Conn: c, kill: &kill}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Concurrent observers: successive snapshots must be monotone in
	// every counter and internally consistent.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last Status
		var lastLat int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := a.Status()
			if st.SessionsInitiated < last.SessionsInitiated ||
				st.SessionsFailed < last.SessionsFailed ||
				st.Resyncs < last.Resyncs ||
				st.DialRetries < last.DialRetries ||
				st.Wire.FramesSent < last.Wire.FramesSent ||
				st.Wire.BytesRecv < last.Wire.BytesRecv {
				t.Errorf("status went backwards: %+v -> %+v", last, st)
				return
			}
			if st.SessionsActive < 0 || st.SessionsActive > 1 {
				t.Errorf("sessions_active torn: %d", st.SessionsActive)
				return
			}
			lat := st.Peers[0].Latency
			if lat == nil || lat.Count < lastLat {
				t.Errorf("latency histogram went backwards: %+v", lat)
				return
			}
			lastLat = lat.Count
			// Cross-metric equalities on every snapshot are
			// TestStatusIsConsistentCut's; equality is asserted at
			// quiescence below.
			last = st
		}
	}()
	wg.Add(1)
	go func() { // exposition under load
		defer wg.Done()
		var sb strings.Builder
		for {
			select {
			case <-stop:
				return
			default:
			}
			sb.Reset()
			if err := a.WriteMetrics(&sb); err != nil {
				t.Errorf("WriteMetrics: %v", err)
				return
			}
		}
	}()

	run := func(epoch int, wantErr bool) {
		t.Helper()
		_, err := a.RunEpoch(context.Background(), epoch)
		if err != nil && !wantErr {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if err == nil && wantErr {
			t.Fatalf("epoch %d succeeded, wanted a fault", epoch)
		}
	}
	failFirstDial.Store(true) // epoch 0 dials twice
	for epoch := 0; epoch < healthy; epoch++ {
		run(epoch, false)
	}
	kill.Store(true) // mid-session connection kill: failed epoch
	run(healthy, true)
	stop1() // cold responder restart on a new address
	_, addr2, stop2 := newResponder(t, sys, wl)
	defer stop2()
	addr.Store(addr2)
	for epoch := healthy; epoch < total; epoch++ {
		run(epoch, false)
	}
	close(stop)
	wg.Wait()

	// Quiescent invariants: the histogram accounts for exactly the
	// successful sessions, and the failure/retry counters saw the
	// injected faults.
	st := a.Status()
	if st.SessionsInitiated != total {
		t.Errorf("initiated %d, want %d", st.SessionsInitiated, total)
	}
	if st.SessionsFailed == 0 {
		t.Error("killed session not counted as failure")
	}
	if st.DialRetries == 0 {
		t.Error("flaky dial not counted as retry")
	}
	if lat := st.Peers[0].Latency; lat.Count != st.SessionsInitiated+st.SessionsServed {
		t.Errorf("latency count %d != sessions %d", lat.Count, st.SessionsInitiated+st.SessionsServed)
	}
	if st.Wire.FramesSent == 0 || st.Wire.FramesRecv == 0 || st.Wire.BytesSent == 0 {
		t.Errorf("wire counters empty: %+v", st.Wire)
	}
	if st.Wire.HelloUs <= 0 || st.Wire.PrefsUs <= 0 {
		t.Errorf("wire phase times empty: %+v", st.Wire)
	}

	// The exposition agrees with the status surface and carries the
	// per-peer histogram.
	var sb strings.Builder
	if err := a.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`agentd_sessions_initiated_total{agent="a"} 5`,
		`agentd_session_seconds_count{agent="a",peer="b"} 5`,
		`agentd_session_seconds_bucket{agent="a",peer="b",le="+Inf"} 5`,
		`agentd_dial_retries_total{agent="a"}`,
		`agentd_wire_frames_total{agent="a",dir="sent"}`,
		`agentd_wire_phase_microseconds_total{agent="a",phase="prefs"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Histogram snapshots from the status surface merge across peers
	// and agents (shared bucket ladder).
	var merged telemetry.HistogramSnapshot
	for _, p := range st.Peers {
		if err := merged.Merge(*p.Latency); err != nil {
			t.Fatalf("latency snapshots do not merge: %v", err)
		}
	}
	if merged.Count != total {
		t.Errorf("merged latency count %d, want %d", merged.Count, total)
	}
}

// cutErrors lists the ways a status snapshot disagrees with itself: the
// agent totals must be the sums of the peers it lists, sessions counted
// by the latency histograms, failures by the peers plus the sessions
// refused before a peer was known.
func cutErrors(st Status, refused int64) []string {
	var sessions, failures, resyncs, replayed, restores int64
	for _, p := range st.Peers {
		sessions += p.Latency.Count
		failures += p.Failures
		resyncs += p.Resyncs
		replayed += p.ReplayedEpochs
		restores += p.SnapshotRestores
	}
	var errs []string
	check := func(what string, total, sum int64) {
		if total != sum {
			errs = append(errs, fmt.Sprintf("%s %d, peers sum to %d", what, total, sum))
		}
	}
	check("sessions", st.SessionsInitiated+st.SessionsServed, sessions)
	check("failures", st.SessionsFailed, failures+refused)
	check("resyncs", st.Resyncs, resyncs)
	check("replayed epochs", st.ReplayedEpochs, replayed)
	check("snapshot restores", st.SnapshotRestores, restores)
	return errs
}

// TestStatusIsConsistentCut reads both agents' status while sessions
// run through a refused stranger, a flaky dial, a mid-session kill and
// a responder restart that restores a snapshot and resyncs. Every
// snapshot, not only a quiesced one, must be one consistent cut: its
// totals equal the sums over its peers.
func TestStatusIsConsistentCut(t *testing.T) {
	const killAt, restartAfter, total = 3, 6, 10
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	dir := t.TempDir()
	b1, addr1, stop1 := newSnapResponder(t, sys, wl, dir)

	var addr atomic.Value
	addr.Store(addr1)
	dialB := func() (net.Conn, error) { return net.Dial("tcp", addr.Load().(string)) }
	stranger := New(Config{Name: "stranger", Timeout: 5 * time.Second})
	if err := stranger.AddPeer(Peer{Name: "b", Side: nexit.SideA, Ctl: continuous.New(sys, 10), Workloads: wl, Dial: dialB}); err != nil {
		t.Fatal(err)
	}
	if _, err := stranger.RunEpoch(context.Background(), 0); err == nil {
		t.Fatal("stranger was served")
	}
	stranger.Close()

	var kill, failFirstDial atomic.Bool
	failFirstDial.Store(true)
	a := New(Config{Name: "a", Timeout: 5 * time.Second, DialBackoff: time.Millisecond, Logf: t.Logf})
	if err := a.AddPeer(Peer{
		Name: "b", Side: nexit.SideA, Ctl: continuous.New(sys, 10), Workloads: wl,
		Dial: func() (net.Conn, error) {
			if failFirstDial.CompareAndSwap(true, false) {
				return nil, net.ErrClosed
			}
			c, err := dialB()
			if err != nil {
				return nil, err
			}
			return &flakyConn{Conn: c, kill: &kill}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// The observed responder and the sessions it refused: one stranger
	// for the first, none for its restart.
	type observed struct {
		agent   *Agent
		refused int64
	}
	var responder atomic.Pointer[observed]
	responder.Store(&observed{b1, 1})
	var snapshots, disagree atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	observe := func(next func() observed) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			o := next()
			snapshots.Add(1)
			if errs := cutErrors(o.agent.Status(), o.refused); len(errs) > 0 {
				if disagree.Add(1) == 1 {
					t.Errorf("agent %s: status is not a consistent cut: %s", o.agent.Name(), strings.Join(errs, "; "))
				}
			}
		}
	}
	wg.Add(2)
	go observe(func() observed { return observed{a, 0} })
	go observe(func() observed { return *responder.Load() })

	for epoch := 0; epoch < total; epoch++ {
		if epoch == killAt {
			kill.Store(true)
			if _, err := a.RunEpoch(context.Background(), epoch); err == nil {
				t.Fatal("epoch with a killed connection succeeded")
			}
		}
		if epoch == restartAfter+1 {
			// Cold restart over the same state directory: the newcomer
			// restores the epoch-6 snapshot and replays the tail.
			stop1()
			b2, addr2, _ := newSnapResponder(t, sys, wl, dir)
			responder.Store(&observed{b2, 0})
			addr.Store(addr2)
			// The cached connection died with b1: this attempt fails and
			// the one below redials (RunEpoch is idempotent per epoch).
			a.RunEpoch(context.Background(), epoch)
		}
		if _, err := a.RunEpoch(context.Background(), epoch); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	b2 := responder.Load().agent
	waitServed(t, b2, total-restartAfter-1)
	close(stop)
	wg.Wait()
	if n := disagree.Load(); n > 0 {
		t.Errorf("%d of %d snapshots were not consistent cuts", n, snapshots.Load())
	}
	st := b2.Status()
	if st.SnapshotRestores != 1 || st.Resyncs != 1 {
		t.Errorf("restarted responder: %d restores, %d resyncs; want 1 and 1", st.SnapshotRestores, st.Resyncs)
	}
	t.Logf("%d snapshots", snapshots.Load())
}
