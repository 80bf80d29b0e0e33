package agentd

import (
	"context"
	"expvar"
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

// A restarted agent re-publishing under its old name must take the
// expvar over: the endpoint serves the LIVE daemon's status, not the
// dead one's frozen snapshot.
func TestPublishExpvarRestartRepoints(t *testing.T) {
	const name = "test.publish.restart"
	read := func() string {
		v := expvar.Get(name)
		if v == nil {
			t.Fatalf("expvar %q not published", name)
		}
		return v.String()
	}

	gen1 := New(Config{Name: "gen1"})
	gen1.PublishExpvar(name)
	if got := read(); !strings.Contains(got, `"name":"gen1"`) {
		t.Fatalf("first publish serves %s", got)
	}

	// The process restarts the daemon: a new Agent, same expvar name.
	gen2 := New(Config{Name: "gen2"})
	gen2.PublishExpvar(name)
	if got := read(); !strings.Contains(got, `"name":"gen2"`) {
		t.Fatalf("after restart the expvar still serves the dead agent: %s", got)
	}

	// And the new agent's counters flow through immediately.
	gen2.sessionsFailed.Inc()
	if got := read(); !strings.Contains(got, `"sessions_failed":1`) {
		t.Fatalf("expvar not reading the live agent: %s", got)
	}

	// A name owned outside this package stays untouched (no panic, no
	// takeover).
	foreign := expvar.NewString("test.publish.foreign")
	foreign.Set("keep")
	New(Config{Name: "intruder"}).PublishExpvar("test.publish.foreign")
	if got := expvar.Get("test.publish.foreign").String(); got != `"keep"` {
		t.Fatalf("foreign expvar overwritten: %s", got)
	}
}

// TestStatusConcurrentWithFaultySessions drives epochs through dial
// retries, a mid-session connection kill, and a responder restart
// while hammering Status() and registry snapshots from other
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
			// No cross-metric inequality here: counters and histograms
			// are separate atomics read at different instants, so a
			// snapshot may legitimately catch one ahead of the other.
			// Equality is asserted at quiescence below.
			last = st
		}
	}()
	wg.Add(1)
	go func() { // registry reader: exposition under load
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

	// The registry agrees with the status surface, and the exposition
	// carries the per-peer histogram.
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
