package agentd

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/continuous"
	"repro/internal/gen"
	"repro/internal/nexit"
	"repro/internal/nexitwire"
	"repro/internal/pairsim"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// testSystem builds a deterministic pair from the generator.
func testSystem(t testing.TB, seed int64) *pairsim.System {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 10
	cfg.Seed = seed
	isps, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := topology.AllPairs(isps, 2, true)
	if len(pairs) == 0 {
		t.Fatal("no pairs")
	}
	return pairsim.New(pairs[0], nil)
}

// testWorkloads derives deterministic drifting epoch workloads; both
// endpoints (and the serial reference) share it.
func testWorkloads(sys *pairsim.System, seed int64) WorkloadFunc {
	return func(epoch int) (*traffic.Workload, *traffic.Workload) {
		baseAB := traffic.New(sys.Pair.A, sys.Pair.B, traffic.Gravity, nil)
		baseBA := traffic.New(sys.Pair.B, sys.Pair.A, traffic.Gravity, nil)
		rng := runner.PairRand(seed, epoch)
		return continuous.Drift(baseAB, 0.25, rng), continuous.Drift(baseBA, 0.25, rng)
	}
}

// startResponder builds and serves agent "b" for the given system,
// returning the agent and its dial address.
func startResponder(t *testing.T, sys *pairsim.System, wl WorkloadFunc) (*Agent, string) {
	t.Helper()
	b := New(Config{Name: "b", Timeout: 10 * time.Second, Logf: t.Logf})
	if err := b.AddPeer(Peer{
		Name:      "a",
		Side:      nexit.SideB,
		Ctl:       continuous.New(sys, 10),
		Workloads: wl,
	}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(ln)
	t.Cleanup(func() {
		ln.Close()
		b.Close()
		b.Wait()
	})
	return b, ln.Addr().String()
}

// TestTwoAgentEpochs runs several epochs between two daemons over
// loopback TCP and pins the outcome to the serial in-process controller.
func TestTwoAgentEpochs(t *testing.T) {
	const epochs = 4
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	b, addr := startResponder(t, sys, wl)

	a := New(Config{Name: "a", Timeout: 10 * time.Second, Logf: t.Logf})
	if err := a.AddPeer(Peer{
		Name:      "b",
		Side:      nexit.SideA,
		Ctl:       continuous.New(sys, 10),
		Workloads: wl,
		Dial:      func() (net.Conn, error) { return net.Dial("tcp", addr) },
	}); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Serial in-process reference: same controller inputs, no wire.
	ref := continuous.New(sys, 10)

	for epoch := 0; epoch < epochs; epoch++ {
		reports, err := a.RunEpoch(context.Background(), epoch)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		rep := reports["b"]
		if rep == nil {
			t.Fatalf("epoch %d: no report for peer b", epoch)
		}
		wAB, wBA := wl(epoch)
		want, err := ref.Epoch(wAB, wBA)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, want) {
			t.Errorf("epoch %d: wire report %+v, serial reference %+v", epoch, rep, want)
		}
	}

	// The daemon negotiated for real in later epochs.
	if st := a.Status(); st.SessionsInitiated != epochs || st.SessionsFailed != 0 {
		t.Errorf("initiator status: %+v", st)
	}
	stB := waitServed(t, b, epochs)
	if stB.Peers[0].Epochs != epochs {
		t.Errorf("responder advanced to epoch %d, want %d", stB.Peers[0].Epochs, epochs)
	}
	if stB.Peers[0].GainUs == 0 {
		t.Error("responder never gained; epochs likely never negotiated")
	}
}

// waitServed polls until the responder has served n sessions (the
// initiator returns before the responder's bookkeeping completes).
func waitServed(t *testing.T, b *Agent, n int64) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := b.Status()
		if st.SessionsServed >= n || time.Now().After(deadline) {
			if st.SessionsServed != n {
				t.Errorf("responder served %d sessions, want %d", st.SessionsServed, n)
			}
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTwoAgentBandwidthEpochs drives a bandwidth-metric pair over
// loopback TCP — stateful evaluators, mid-session reassignment, metric
// carried in every Hello — and pins the outcome to the serial
// in-process controller for the same metric.
func TestTwoAgentBandwidthEpochs(t *testing.T) {
	const epochs = 4
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)

	newCtl := func() *continuous.Controller {
		ctl, err := continuous.NewWithMetric(sys, 10, continuous.MetricBandwidth, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ctl
	}
	b := New(Config{Name: "b", Timeout: 10 * time.Second, Logf: t.Logf})
	if err := b.AddPeer(Peer{
		Name: "a", Side: nexit.SideB, Ctl: newCtl(), Workloads: wl,
	}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(ln)
	defer func() {
		ln.Close()
		b.Close()
		b.Wait()
	}()
	addr := ln.Addr().String()

	a := New(Config{Name: "a", Timeout: 10 * time.Second, Logf: t.Logf})
	if err := a.AddPeer(Peer{
		Name: "b", Side: nexit.SideA, Ctl: newCtl(), Workloads: wl,
		Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
	}); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	ref := newCtl()
	negotiated := false
	for epoch := 0; epoch < epochs; epoch++ {
		reports, err := a.RunEpoch(context.Background(), epoch)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		wAB, wBA := wl(epoch)
		want, err := ref.Epoch(wAB, wBA)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reports["b"], want) {
			t.Errorf("epoch %d: wire report %+v, serial reference %+v", epoch, reports["b"], want)
		}
		if want.Negotiated > 0 {
			negotiated = true
		}
	}
	if !negotiated {
		t.Error("no epoch negotiated; the bandwidth wire path was not exercised")
	}
	if st := a.Status(); st.Peers[0].Metric != string(continuous.MetricBandwidth) {
		t.Errorf("status reports metric %q, want bandwidth", st.Peers[0].Metric)
	}
}

// TestMetricMismatchRejected crosses a bandwidth-metric initiator with
// a distance-metric responder: the session must be rejected cleanly at
// Hello time with a labelled reason on both sides, and neither
// controller may advance an epoch (a mismatch is a refusal, not a
// desync).
func TestMetricMismatchRejected(t *testing.T) {
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	b, addr := startResponder(t, sys, wl) // distance metric

	bwCtl, err := continuous.NewWithMetric(sys, 10, continuous.MetricBandwidth, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{Name: "a", Timeout: 5 * time.Second})
	if err := a.AddPeer(Peer{
		Name: "b", Side: nexit.SideA, Ctl: bwCtl, Workloads: wl,
		Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
	}); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	_, err = a.RunEpoch(context.Background(), 0)
	if err == nil {
		t.Fatal("mismatched metrics negotiated successfully")
	}
	if !strings.Contains(err.Error(), "metric mismatch") ||
		!strings.Contains(err.Error(), `"bandwidth"`) || !strings.Contains(err.Error(), `"distance"`) {
		t.Errorf("rejection reason is not labelled with both metrics: %v", err)
	}
	// No desync: neither controller advanced, and the failure is
	// recorded — not a half-run epoch.
	if got := bwCtl.EpochIndex(); got != 0 {
		t.Errorf("initiator controller advanced to epoch %d on a rejected session", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Status().SessionsFailed == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := b.Status()
	if st.SessionsFailed == 0 {
		t.Errorf("responder did not record the rejected session: %+v", st)
	}
	if st.Peers[0].Epochs != 0 {
		t.Errorf("responder controller advanced to epoch %d on a rejected session", st.Peers[0].Epochs)
	}
	if st := a.Status(); st.SessionsFailed == 0 || !strings.Contains(st.Peers[0].LastError, "metric mismatch") {
		t.Errorf("initiator status does not carry the labelled failure: %+v", st)
	}
}

// flakyConn kills the connection mid-session: once armed, the second
// write fails (the first lets the session's Hello out, so the kill
// lands inside an in-flight session, not between sessions).
type flakyConn struct {
	net.Conn
	kill   *atomic.Bool
	writes int
}

func (c *flakyConn) Write(b []byte) (int, error) {
	if c.kill.Load() {
		if c.writes++; c.writes >= 2 {
			c.kill.Store(false)
			c.Conn.Close()
			return 0, net.ErrClosed
		}
	}
	return c.Conn.Write(b)
}

// newResponder builds agent "b" with a fresh controller and serves it,
// returning the agent, its address, and a stopper. Unlike
// startResponder it leaves the lifecycle to the caller, so tests can
// kill and replace the daemon mid-run.
func newResponder(t *testing.T, sys *pairsim.System, wl WorkloadFunc) (*Agent, string, func()) {
	t.Helper()
	b := New(Config{Name: "b", Timeout: 10 * time.Second, Logf: t.Logf})
	if err := b.AddPeer(Peer{
		Name: "a", Side: nexit.SideB, Ctl: continuous.New(sys, 10), Workloads: wl,
	}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go b.Serve(ln)
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ln.Close()
			b.Close()
			b.Wait()
		})
	}
	t.Cleanup(stop)
	return b, ln.Addr().String(), stop
}

// TestResponderRestartResync is the recovery path end to end: the
// responder's connection is killed mid-session, the responder daemon is
// then torn down entirely and replaced by a cold restart (fresh
// controller at epoch 0), and the next RunEpoch must fast-forward the
// newcomer and produce the exact serial-reference outcome — no operator
// intervention, resync visible in status.
func TestResponderRestartResync(t *testing.T) {
	const healthy, total = 3, 5
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	_, addr1, stop1 := newResponder(t, sys, wl)

	var addr atomic.Value
	addr.Store(addr1)
	var kill atomic.Bool
	a := New(Config{
		Name: "a", Timeout: 5 * time.Second,
		DialBackoff: time.Millisecond, Logf: t.Logf,
	})
	if err := a.AddPeer(Peer{
		Name: "b", Side: nexit.SideA, Ctl: continuous.New(sys, 10), Workloads: wl,
		Dial: func() (net.Conn, error) {
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

	ref := continuous.New(sys, 10)
	wantEpoch := func(epoch int) *continuous.EpochReport {
		wAB, wBA := wl(epoch)
		rep, err := ref.Epoch(wAB, wBA)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	runEpoch := func(epoch int) {
		t.Helper()
		reports, err := a.RunEpoch(context.Background(), epoch)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if !reflect.DeepEqual(reports["b"], wantEpoch(epoch)) {
			t.Errorf("epoch %d diverged from the serial reference", epoch)
		}
	}
	for epoch := 0; epoch < healthy; epoch++ {
		runEpoch(epoch)
	}

	// Kill the wire mid-session: the epoch must fail on both sides
	// without advancing either controller.
	kill.Store(true)
	if _, err := a.RunEpoch(context.Background(), healthy); err == nil {
		t.Fatal("epoch with a killed connection succeeded")
	}

	// Replace the responder with a cold restart on a new address.
	stop1()
	b2, addr2, _ := newResponder(t, sys, wl)
	addr.Store(addr2)

	// The very next RunEpoch heals the pair: the restarted responder
	// fast-forwards from epoch 0 and the outcome matches the reference.
	for epoch := healthy; epoch < total; epoch++ {
		runEpoch(epoch)
	}
	st := waitServed(t, b2, total-healthy)
	if st.Peers[0].Epochs != total {
		t.Errorf("restarted responder is at epoch %d, want %d", st.Peers[0].Epochs, total)
	}
	if st.Resyncs != 1 || st.Peers[0].Resyncs != 1 {
		t.Errorf("restarted responder counted %d/%d resyncs, want 1/1", st.Resyncs, st.Peers[0].Resyncs)
	}
	if ast := a.Status(); ast.SessionsFailed == 0 || ast.Resyncs != 0 {
		t.Errorf("initiator status after recovery: %+v", ast)
	}
}

// TestInitiatorRestartResync restarts the initiating daemon: its fresh
// controller is behind the epoch its driver asks for, so it must
// fast-forward locally before dialing and then negotiate normally.
func TestInitiatorRestartResync(t *testing.T) {
	const healthy = 3
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	b, addr := startResponder(t, sys, wl)

	newInitiator := func() *Agent {
		a := New(Config{Name: "a", Timeout: 10 * time.Second, Logf: t.Logf})
		if err := a.AddPeer(Peer{
			Name: "b", Side: nexit.SideA, Ctl: continuous.New(sys, 10), Workloads: wl,
			Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
		}); err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1 := newInitiator()
	for epoch := 0; epoch < healthy; epoch++ {
		if _, err := a1.RunEpoch(context.Background(), epoch); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	a1.Close()
	waitServed(t, b, healthy)

	// The restarted initiator is driven at the epoch the mesh is on.
	a2 := newInitiator()
	defer a2.Close()
	ref := continuous.New(sys, 10)
	if err := ref.SeekEpoch(healthy, wl); err != nil {
		t.Fatal(err)
	}
	wAB, wBA := wl(healthy)
	want, err := ref.Epoch(wAB, wBA)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := a2.RunEpoch(context.Background(), healthy)
	if err != nil {
		t.Fatalf("post-restart epoch: %v", err)
	}
	if !reflect.DeepEqual(reports["b"], want) {
		t.Errorf("post-restart epoch diverged:\n  wire %+v\n  ref  %+v", reports["b"], want)
	}
	if st := a2.Status(); st.Resyncs != 1 || st.Peers[0].Resyncs != 1 {
		t.Errorf("restarted initiator counted %d resyncs, want 1: %+v", st.Resyncs, st)
	}
	if a2.NextEpoch() != healthy+1 {
		t.Errorf("NextEpoch = %d after epoch %d", a2.NextEpoch(), healthy)
	}
}

// TestInitiatorSkewRetryResync covers the responder-ahead case: a
// restarted initiator whose driver also restarted (epoch 0) meets a
// responder that lived through several epochs. The responder cannot
// rewind; it rejects with the typed skew, and the initiator must
// fast-forward to the responder's epoch and retry within the same
// RunEpoch call.
func TestInitiatorSkewRetryResync(t *testing.T) {
	const lived = 3
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	b, addr := startResponder(t, sys, wl)

	newInitiator := func() *Agent {
		a := New(Config{Name: "a", Timeout: 10 * time.Second, Logf: t.Logf})
		if err := a.AddPeer(Peer{
			Name: "b", Side: nexit.SideA, Ctl: continuous.New(sys, 10), Workloads: wl,
			Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
		}); err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1 := newInitiator()
	for epoch := 0; epoch < lived; epoch++ {
		if _, err := a1.RunEpoch(context.Background(), epoch); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	a1.Close()
	waitServed(t, b, lived)

	ref := continuous.New(sys, 10)
	if err := ref.SeekEpoch(lived, wl); err != nil {
		t.Fatal(err)
	}
	wAB, wBA := wl(lived)
	want, err := ref.Epoch(wAB, wBA)
	if err != nil {
		t.Fatal(err)
	}

	// Fully cold restart: the driver starts over at epoch 0.
	a2 := newInitiator()
	defer a2.Close()
	reports, err := a2.RunEpoch(context.Background(), 0)
	if err != nil {
		t.Fatalf("cold-restart epoch: %v", err)
	}
	rep := reports["b"]
	if rep == nil {
		t.Fatal("cold-restart epoch produced no report")
	}
	if rep.Epoch != lived {
		t.Errorf("recovered at epoch %d, want the responder's epoch %d", rep.Epoch, lived)
	}
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("recovered epoch diverged:\n  wire %+v\n  ref  %+v", rep, want)
	}
	st := a2.Status()
	if st.Resyncs != 1 || st.SessionsFailed == 0 {
		t.Errorf("skew retry not visible in status: %+v", st)
	}
	if !strings.Contains(st.Peers[0].LastError, "epoch skew") {
		t.Errorf("last error does not name the skew: %q", st.Peers[0].LastError)
	}
	// Idempotency: re-driving an already-negotiated epoch is a no-op.
	reports, err = a2.RunEpoch(context.Background(), 1)
	if err != nil || len(reports) != 0 {
		t.Errorf("re-driven epoch was not skipped: %v %v", reports, err)
	}
}

// TestResyncBoundRejected pins the replay bound: a peer demanding an
// absurd fast-forward (the epoch comes from the remote end) must get a
// labelled refusal, and the responder's controller must not move — not
// hours of synchronous replay and an unrewindable controller.
func TestResyncBoundRejected(t *testing.T) {
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	b, addr := startResponder(t, sys, wl)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ini := &nexitwire.Initiator{
		Name: "a", Cfg: nexit.DefaultDistanceConfig(),
		Epoch:   MaxEpochSeek + 1,
		Eval:    nexit.NewDistanceEvaluator(sys, nexit.SideA, 10),
		Timeout: 5 * time.Second,
	}
	_, err = ini.RunConn(nexitwire.NewConn(conn), nil, nil, sys.NumAlternatives())
	if err == nil {
		t.Fatal("an absurd epoch fast-forward was served")
	}
	if !strings.Contains(err.Error(), "replay bound") {
		t.Errorf("refusal is not labelled with the bound: %v", err)
	}
	st := b.Status()
	if st.Peers[0].Epochs != 0 || st.Resyncs != 0 {
		t.Errorf("bounded seek still moved the controller: %+v", st)
	}
}

// encodeHelloV2 hand-builds a v2 Hello frame (u16 version, string
// name, u16 alts, u32 items, u64 hash, string metric) — the bytes an
// old, pre-resync daemon would send.
func encodeHelloV2(name string, numAlts, numItems int, hash uint64, metric string) []byte {
	var p []byte
	p = binary.BigEndian.AppendUint16(p, 2) // version
	p = binary.BigEndian.AppendUint16(p, uint16(len(name)))
	p = append(p, name...)
	p = binary.BigEndian.AppendUint16(p, uint16(numAlts))
	p = binary.BigEndian.AppendUint32(p, uint32(numItems))
	p = binary.BigEndian.AppendUint64(p, hash)
	p = binary.BigEndian.AppendUint16(p, uint16(len(metric)))
	p = append(p, metric...)
	frame := binary.BigEndian.AppendUint32(nil, uint32(1+len(p)))
	frame = append(frame, 1) // MsgHello
	return append(frame, p...)
}

// TestOldVersionRejectedBeforeEpoch pins the check order: a v2 peer —
// whose Hello has no epoch field — must get the labelled version
// reject, and its zero-valued epoch must never reach the resync logic
// (no skew reason, no controller movement), even when the responder is
// mid-mesh at a later epoch.
func TestOldVersionRejectedBeforeEpoch(t *testing.T) {
	const lived = 2
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	b, addr := startResponder(t, sys, wl)

	a := New(Config{Name: "a", Timeout: 10 * time.Second, Logf: t.Logf})
	if err := a.AddPeer(Peer{
		Name: "b", Side: nexit.SideA, Ctl: continuous.New(sys, 10), Workloads: wl,
		Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
	}); err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < lived; epoch++ {
		if _, err := a.RunEpoch(context.Background(), epoch); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	a.Close()
	waitServed(t, b, lived)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(encodeHelloV2("a", sys.NumAlternatives(), 0, 0, "distance")); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 4096)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(reply)
	if err != nil {
		t.Fatalf("no reject frame: %v", err)
	}
	got := string(reply[:n])
	if !strings.Contains(got, "version 2") {
		t.Errorf("v2 hello not rejected with the version reason: %q", got)
	}
	if strings.Contains(got, "epoch skew") {
		t.Errorf("v2 hello reached the epoch check before the version check: %q", got)
	}
	if st := b.Status(); st.Peers[0].Epochs != lived || st.Resyncs != 0 {
		t.Errorf("old-version hello moved the controller: %+v", st)
	}
}

// TestRunEpochCancelCounted pins the cancellation path: an epoch
// cancelled before its session starts must surface as a counted,
// labelled failure, not vanish from the status surface.
func TestRunEpochCancelCounted(t *testing.T) {
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	a := New(Config{Name: "a", Timeout: time.Second, MaxSessions: 1})
	if err := a.AddPeer(Peer{
		Name: "b", Side: nexit.SideA, Ctl: continuous.New(sys, 10), Workloads: wl,
		Dial: func() (net.Conn, error) { return nil, net.ErrClosed },
	}); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.RunEpoch(ctx, 0); err == nil {
		t.Fatal("cancelled epoch succeeded")
	}
	st := a.Status()
	if st.SessionsFailed != 1 {
		t.Errorf("cancelled epoch not counted: %+v", st)
	}
	// The cancellation can land in the session-slot wait ("cancelled")
	// or the dial ladder ("context canceled"); both must be labelled.
	if !strings.Contains(st.Peers[0].LastError, "cancel") {
		t.Errorf("cancelled epoch not labelled: %q", st.Peers[0].LastError)
	}
}

// TestDialBackoffCancelled pins satellite semantics for SIGINT: a
// context cancelled during the dial-backoff ladder must interrupt the
// wait promptly instead of sleeping out the full ladder.
func TestDialBackoffCancelled(t *testing.T) {
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	a := New(Config{
		Name: "a", Timeout: time.Second,
		DialBackoff: 10 * time.Second, // ladder would sleep 16 s
	})
	if err := a.AddPeer(Peer{
		Name: "b", Side: nexit.SideA, Ctl: continuous.New(sys, 10), Workloads: wl,
		Dial: func() (net.Conn, error) { return nil, net.ErrClosed },
	}); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := a.RunEpoch(ctx, 0)
	if err == nil {
		t.Fatal("epoch against a dead dialer succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not carry the cancellation: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; the backoff sleep ignored ctx", elapsed)
	}
}

// TestDialBackoffPersistsAndResets pins the backoff ladder contract:
// the delay escalates across failed epochs (a down neighbor is not
// hammered from the base delay each time) and resets after a
// successful session (one old failure does not slow future redials).
func TestDialBackoffPersistsAndResets(t *testing.T) {
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	_, addr := startResponder(t, sys, wl)

	var down atomic.Bool
	a := New(Config{
		Name: "a", Timeout: 10 * time.Second, DialBackoff: time.Millisecond,
	})
	if err := a.AddPeer(Peer{
		Name: "b", Side: nexit.SideA, Ctl: continuous.New(sys, 10), Workloads: wl,
		Dial: func() (net.Conn, error) {
			if down.Load() {
				return nil, net.ErrClosed
			}
			return net.Dial("tcp", addr)
		},
	}); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	p := a.peer("b")
	down.Store(true)
	var ladder [2]time.Duration
	for i := range ladder {
		if _, err := a.RunEpoch(context.Background(), 0); err == nil {
			t.Fatal("epoch against a down neighbor succeeded")
		}
		p.mu.Lock()
		ladder[i] = p.backoff
		p.mu.Unlock()
	}
	if ladder[0] <= time.Millisecond || ladder[1] <= ladder[0] {
		t.Errorf("backoff did not escalate across failed epochs: %v", ladder)
	}
	down.Store(false)
	if _, err := a.RunEpoch(context.Background(), 0); err != nil {
		t.Fatalf("epoch after recovery: %v", err)
	}
	p.mu.Lock()
	reset := p.backoff
	p.mu.Unlock()
	if reset != 0 {
		t.Errorf("successful session did not reset the backoff ladder: %v", reset)
	}
}

// TestDialRetryBackoff proves the outbound dialer retries with backoff
// until the neighbor comes up.
func TestDialRetryBackoff(t *testing.T) {
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	_, addr := startResponder(t, sys, wl)

	var attempts atomic.Int64
	a := New(Config{
		Name: "a", Timeout: 10 * time.Second, DialBackoff: time.Millisecond,
	})
	if err := a.AddPeer(Peer{
		Name:      "b",
		Side:      nexit.SideA,
		Ctl:       continuous.New(sys, 10),
		Workloads: wl,
		Dial: func() (net.Conn, error) {
			if attempts.Add(1) < 3 {
				return nil, net.ErrClosed // transient failure, twice
			}
			return net.Dial("tcp", addr)
		},
	}); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if _, err := a.RunEpoch(context.Background(), 0); err != nil {
		t.Fatalf("epoch with flaky dialer: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("dialed %d times, want 3 (two failures, one success)", got)
	}
	// The connection is cached: another epoch must not redial.
	if _, err := a.RunEpoch(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("cached connection was redialed (%d dials)", got)
	}
}

// TestWorkloadMismatch crosses two agents configured with different
// workload seeds: the session must fail fast at Hello time with the
// workload-hash mismatch surfaced on both sides.
func TestWorkloadMismatch(t *testing.T) {
	sys := testSystem(t, 1)
	b, addr := startResponder(t, sys, testWorkloads(sys, 42))

	a := New(Config{Name: "a", Timeout: 5 * time.Second})
	if err := a.AddPeer(Peer{
		Name:      "b",
		Side:      nexit.SideA,
		Ctl:       continuous.New(sys, 10),
		Workloads: testWorkloads(sys, 43), // different universe
		Dial:      func() (net.Conn, error) { return net.Dial("tcp", addr) },
	}); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Epoch 0 tables are empty on both sides (no flows promoted yet), so
	// the hashes agree; run it to let the registries diverge.
	if _, err := a.RunEpoch(context.Background(), 0); err != nil {
		t.Fatalf("empty epoch: %v", err)
	}
	var err error
	for epoch := 1; epoch < 4 && err == nil; epoch++ {
		_, err = a.RunEpoch(context.Background(), epoch)
	}
	if err == nil {
		t.Fatal("mismatched universes negotiated successfully")
	}
	// The universes differ in table size or hash; either way the abort
	// reason must travel back to the initiator.
	if !strings.Contains(err.Error(), "peer error") {
		t.Errorf("error does not surface the peer's abort reason: %v", err)
	}
	if st := a.Status(); st.SessionsFailed == 0 || st.Peers[0].LastError == "" {
		t.Errorf("failure not recorded in status: %+v", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Status().SessionsFailed == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := b.Status(); st.SessionsFailed == 0 {
		t.Errorf("responder did not record the aborted session: %+v", st)
	}
}

// TestUnknownPeerRejected sends a Hello naming a peer the responder is
// not configured for and expects a protocol-level rejection.
func TestUnknownPeerRejected(t *testing.T) {
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	_, addr := startResponder(t, sys, wl)

	stranger := New(Config{Name: "stranger", Timeout: 5 * time.Second})
	if err := stranger.AddPeer(Peer{
		Name:      "b",
		Side:      nexit.SideA,
		Ctl:       continuous.New(sys, 10),
		Workloads: wl,
		Dial:      func() (net.Conn, error) { return net.Dial("tcp", addr) },
	}); err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()

	_, err := stranger.RunEpoch(context.Background(), 0)
	if err == nil {
		t.Fatal("unknown peer was served")
	}
	if !strings.Contains(err.Error(), "not configured") {
		t.Errorf("rejection reason not surfaced: %v", err)
	}
}

// stallConn lets its first write (the session's Hello) out and blocks
// every later one until the connection is closed or 10 s pass: a peer
// that opened a session and went silent.
type stallConn struct {
	net.Conn
	writes int
	once   sync.Once
	closed chan struct{}
}

func (c *stallConn) Write(b []byte) (int, error) {
	if c.writes++; c.writes > 1 {
		select {
		case <-c.closed:
		case <-time.After(10 * time.Second):
		}
		return 0, net.ErrClosed
	}
	return c.Conn.Write(b)
}

func (c *stallConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestCloseDoesNotWaitOnStalledSessions: Close must return at once even
// while a session is stalled inside its wire exchange — served or
// initiated — instead of waiting out the exchange timeout.
func TestCloseDoesNotWaitOnStalledSessions(t *testing.T) {
	const timeout = 3 * time.Second
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	waitActive := func(t *testing.T, ag *Agent) {
		t.Helper()
		for deadline := time.Now().Add(timeout); ag.Status().SessionsActive == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("no session started")
			}
		}
	}
	closeQuickly := func(t *testing.T, ag *Agent) {
		t.Helper()
		start := time.Now()
		ag.Close()
		if d := time.Since(start); d > time.Second {
			t.Errorf("Close took %v behind a stalled session", d)
		}
	}
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln
	}
	initiator := func(dial func() (net.Conn, error)) (*Agent, chan error) {
		a := New(Config{Name: "a", Timeout: timeout, Logf: t.Logf})
		if err := a.AddPeer(Peer{Name: "b", Side: nexit.SideA, Ctl: continuous.New(sys, 10), Workloads: wl, Dial: dial}); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := a.RunEpoch(context.Background(), 0)
			done <- err
		}()
		return a, done
	}

	t.Run("served", func(t *testing.T) {
		ln := listen()
		b := New(Config{Name: "b", Timeout: timeout, Logf: t.Logf})
		if err := b.AddPeer(Peer{Name: "a", Side: nexit.SideB, Ctl: continuous.New(sys, 10), Workloads: wl}); err != nil {
			t.Fatal(err)
		}
		go b.Serve(ln)
		a, done := initiator(func() (net.Conn, error) {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return nil, err
			}
			return &stallConn{Conn: c, closed: make(chan struct{})}, nil
		})
		waitActive(t, b)
		closeQuickly(t, b)
		ln.Close()
		b.Wait()
		a.Close()
		<-done
	})

	t.Run("initiated", func(t *testing.T) {
		ln := listen()
		go func() { // a responder that reads the Hello and never answers
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			io.Copy(io.Discard, c)
		}()
		a, done := initiator(func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) })
		waitActive(t, a)
		closeQuickly(t, a)
		if err := <-done; err == nil {
			t.Error("the stalled session succeeded")
		}
	})
}

// pipeListener hands the server halves of net.Pipe connections to
// Accept; closing it ends Accept with net.ErrClosed.
type pipeListener chan net.Conn

func (l pipeListener) Accept() (net.Conn, error) {
	c, ok := <-l
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}

func (l pipeListener) Close() error   { close(l); return nil }
func (l pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestCloseQuietOnIdleInbound: Close cutting an idle inbound
// connection's read is a clean end, not an "inbound connection" error,
// over TCP and net.Pipe alike.
func TestCloseQuietOnIdleInbound(t *testing.T) {
	for _, transport := range []string{"tcp", "pipe"} {
		t.Run(transport, func(t *testing.T) {
			var (
				mu   sync.Mutex
				logs []string
			)
			b := New(Config{Name: "b", Logf: func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				logs = append(logs, fmt.Sprintf(format, args...))
			}})
			var ln net.Listener
			var dial func() (net.Conn, error)
			if transport == "tcp" {
				tln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				ln, dial = tln, func() (net.Conn, error) { return net.Dial("tcp", tln.Addr().String()) }
			} else {
				pln := make(pipeListener)
				ln, dial = pln, func() (net.Conn, error) {
					client, server := net.Pipe()
					pln <- server
					return client, nil
				}
			}
			served := make(chan error, 1)
			go func() { served <- b.Serve(ln) }()
			conn, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				b.mu.Lock()
				held := len(b.conns)
				b.mu.Unlock()
				if held > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the agent never took the inbound connection")
				}
			}
			b.Close()
			ln.Close()
			if err := <-served; err != nil {
				t.Fatal(err)
			}
			b.Wait()
			mu.Lock()
			defer mu.Unlock()
			for _, line := range logs {
				if strings.Contains(line, "inbound connection:") {
					t.Errorf("Close logged %q", line)
				}
			}
		})
	}
}
