package agentd

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/continuous"
	"repro/internal/nexit"
	"repro/internal/snapshot"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from the current daemon")

// timed reports whether an exposition sample carries a wall-clock
// reading: a session-latency bucket or sum, or a wire phase time.
func timed(line string) bool {
	return strings.HasPrefix(line, "agentd_session_seconds_bucket{") ||
		strings.HasPrefix(line, "agentd_session_seconds_sum{") ||
		strings.HasPrefix(line, "agentd_wire_phase_microseconds_total{")
}

// maskedMetrics renders the agent's exposition with every timing-valued
// sample's value replaced by "<t>".
func maskedMetrics(t *testing.T, a *Agent) string {
	t.Helper()
	var sb strings.Builder
	if err := a.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(sb.String(), "\n")
	for i, line := range lines {
		if timed(line) {
			lines[i] = line[:strings.LastIndexByte(line, ' ')] + " <t>\n"
		}
	}
	return strings.Join(lines, "")
}

// maskedStatus renders the agent's status JSON with its timing-valued
// fields (latency buckets and sums, wire phase times) zeroed.
func maskedStatus(t *testing.T, a *Agent) string {
	t.Helper()
	st := a.Status()
	st.Wire.HelloUs, st.Wire.PrefsUs, st.Wire.ProposeUs, st.Wire.CommitUs = 0, 0, 0, 0
	for i := range st.Peers {
		if lat := st.Peers[i].Latency; lat != nil {
			lat.Counts, lat.Sum = nil, 0
		}
	}
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestMetricsGolden pins the /metrics exposition and the status JSON of
// a deterministic, quiesced two-agent scenario that moves every count
// the daemon keeps: a refused stranger, a flaky first dial, a snapshot
// restore at startup, an epoch-skew reject healed by a resync, snapshot
// saves and four served sessions. Timing-valued samples are masked; the
// rest — names, labels, order, counts — must match byte for byte.
func TestMetricsGolden(t *testing.T) {
	const restored = 2
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	dir := t.TempDir()

	// The responder's store holds a snapshot at epoch 2, so it starts
	// ahead of a fresh initiator.
	store, err := snapshot.NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	lived := continuous.New(sys, 10)
	if err := lived.SeekEpoch(restored, wl); err != nil {
		t.Fatal(err)
	}
	if err := store.Save("a", lived.Snapshot()); err != nil {
		t.Fatal(err)
	}
	b := New(Config{Name: "b", Timeout: 10 * time.Second, Logf: t.Logf, Snapshots: store, SnapshotInterval: 2})
	if err := b.AddPeer(Peer{Name: "a", Side: nexit.SideB, Ctl: continuous.New(sys, 10), Workloads: wl}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(ln)
	addr := ln.Addr().String()
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }

	stranger := New(Config{Name: "stranger", Timeout: 10 * time.Second})
	if err := stranger.AddPeer(Peer{Name: "b", Side: nexit.SideA, Ctl: continuous.New(sys, 10), Workloads: wl, Dial: dial}); err != nil {
		t.Fatal(err)
	}
	if _, err := stranger.RunEpoch(context.Background(), 0); err == nil {
		t.Fatal("stranger was served")
	}
	stranger.Close()

	var flaky atomic.Bool
	flaky.Store(true)
	a := New(Config{Name: "a", Timeout: 10 * time.Second, DialBackoff: time.Millisecond, Logf: t.Logf})
	if err := a.AddPeer(Peer{
		Name: "b", Side: nexit.SideA, Ctl: continuous.New(sys, 10), Workloads: wl,
		Dial: func() (net.Conn, error) {
			if flaky.CompareAndSwap(true, false) {
				return nil, net.ErrClosed
			}
			return dial()
		},
	}); err != nil {
		t.Fatal(err)
	}
	// Epoch 0 is refused as skewed; the initiator resyncs to epoch 2 and
	// negotiates it, then epochs 3 to 5 run clean.
	for _, epoch := range []int{0, 3, 4, 5} {
		if _, err := a.RunEpoch(context.Background(), epoch); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	waitServed(t, b, 4)
	a.Close()
	ln.Close()
	b.Close()
	b.Wait()

	var got bytes.Buffer
	for _, ag := range []*Agent{a, b} {
		got.WriteString("== " + ag.Name() + " /metrics\n")
		got.WriteString(maskedMetrics(t, ag))
		got.WriteString("== " + ag.Name() + " status\n")
		got.WriteString(maskedStatus(t, ag))
	}
	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exposition and status differ from %s:\n%s", path, got.String())
	}
}
