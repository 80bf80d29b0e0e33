package agentd

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/continuous"
	"repro/internal/nexit"
	"repro/internal/nexitwire"
	"repro/internal/pairsim"
	"repro/internal/snapshot"
)

// corruptAllSnapshots flips a byte in every snapshot file under dir.
func corruptAllSnapshots(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no snapshot files to corrupt; the store never wrote")
	}
}

// newSnapResponder serves agent "b" with a snapshot store over the
// given state directory, so a later call with the same directory is a
// cold restart that resumes from the persisted snapshots.
func newSnapResponder(t *testing.T, sys *pairsim.System, wl WorkloadFunc, dir string) (*Agent, string, func()) {
	t.Helper()
	store, err := snapshot.NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := New(Config{
		Name: "b", Timeout: 10 * time.Second, Logf: t.Logf,
		Snapshots: store, SnapshotInterval: 2,
	})
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
			b.Wait() // drains in-flight snapshot writes too
		})
	}
	t.Cleanup(stop)
	return b, ln.Addr().String(), stop
}

// TestResponderSnapshotRecovery is durable recovery end to end: a
// responder with a state directory lives through several epochs
// (writing snapshots every 2), dies, and is cold-restarted over the
// same directory. The restart must resume from the newest snapshot —
// visible as a snapshot restore and a tail-only replay in status, not a
// full epoch-0 replay — and every post-recovery epoch must still match
// the serial in-process reference exactly.
func TestResponderSnapshotRecovery(t *testing.T) {
	const healthy, total = 5, 7 // snapshots land at epoch indexes 2 and 4
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	dir := t.TempDir()
	b1, addr1, stop1 := newSnapResponder(t, sys, wl, dir)

	var addr atomic.Value
	addr.Store(addr1)
	a := New(Config{
		Name: "a", Timeout: 5 * time.Second,
		DialBackoff: time.Millisecond, Logf: t.Logf,
	})
	if err := a.AddPeer(Peer{
		Name: "b", Side: nexit.SideA, Ctl: continuous.New(sys, 10), Workloads: wl,
		Dial: func() (net.Conn, error) { return net.Dial("tcp", addr.Load().(string)) },
	}); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	ref := continuous.New(sys, 10)
	runEpoch := func(epoch int) {
		t.Helper()
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
			t.Errorf("epoch %d diverged from the serial reference", epoch)
		}
	}
	for epoch := 0; epoch < healthy; epoch++ {
		runEpoch(epoch)
	}
	waitServed(t, b1, healthy)

	// Kill the responder. stop drains the agent, so both interval
	// snapshots are durably on disk before the restart.
	stop1()
	if st := b1.Status(); st.SnapshotSaves != 2 {
		t.Fatalf("first responder persisted %d snapshots, want 2", st.SnapshotSaves)
	}

	// Cold restart over the same state directory: AddPeer resumes the
	// controller from the epoch-4 snapshot before any session arrives.
	b2, addr2, _ := newSnapResponder(t, sys, wl, dir)
	addr.Store(addr2)
	if st := b2.Status(); st.SnapshotRestores != 1 || st.Peers[0].Epochs != 4 {
		t.Fatalf("restart restored %d snapshots to epoch %d, want 1 snapshot to epoch 4",
			st.SnapshotRestores, st.Peers[0].Epochs)
	}

	// The initiator's cached connection died with b1; the first attempt
	// fails and the retry heals through the fresh responder.
	if _, err := a.RunEpoch(context.Background(), healthy); err != nil {
		runEpoch(healthy) // idempotent retry after the broken-conn failure
	} else {
		wAB, wBA := wl(healthy) // keep the reference in step
		if _, err := ref.Epoch(wAB, wBA); err != nil {
			t.Fatal(err)
		}
	}
	for epoch := healthy + 1; epoch < total; epoch++ {
		runEpoch(epoch)
	}

	st := waitServed(t, b2, total-healthy)
	if st.Peers[0].Epochs != total {
		t.Errorf("restarted responder is at epoch %d, want %d", st.Peers[0].Epochs, total)
	}
	// Tail-only recovery: the resync replayed exactly the one epoch
	// between the newest snapshot (4) and the requested epoch (5) —
	// never the controller's whole lifetime.
	if st.Resyncs != 1 || st.Peers[0].Resyncs != 1 {
		t.Errorf("restarted responder counted %d/%d resyncs, want 1/1", st.Resyncs, st.Peers[0].Resyncs)
	}
	if st.ReplayedEpochs != 1 || st.Peers[0].ReplayedEpochs != 1 {
		t.Errorf("restart replayed %d/%d epochs, want tail-only 1/1 (full replay would be %d)",
			st.ReplayedEpochs, st.Peers[0].ReplayedEpochs, healthy)
	}
	if st.Peers[0].SnapshotRestores != 1 {
		t.Errorf("peer counted %d snapshot restores, want 1", st.Peers[0].SnapshotRestores)
	}
}

// TestSnapshotCorruptStateDirDegrades: an agent pointed at a state
// directory full of corrupt snapshots must come up at epoch 0 and heal
// by ordinary replay — the fallback ladder's last rung, not a crash.
func TestSnapshotCorruptStateDirDegrades(t *testing.T) {
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	dir := t.TempDir()

	// Seed the directory with snapshots, then corrupt every one.
	b1, _, stop1 := newSnapResponder(t, sys, wl, dir)
	p := b1.peer("a")
	p.mu.Lock()
	for epoch := 0; epoch < 5; epoch++ {
		if _, err := p.Ctl.Epoch(wl(epoch)); err != nil {
			t.Fatal(err)
		}
		b1.maybeSnapshotLocked(p)
	}
	p.mu.Unlock()
	stop1()
	corruptAllSnapshots(t, dir)

	b2, _, _ := newSnapResponder(t, sys, wl, dir)
	if st := b2.Status(); st.SnapshotRestores != 0 || st.Peers[0].Epochs != 0 {
		t.Fatalf("corrupt store: restored %d snapshots to epoch %d, want none and epoch 0",
			st.SnapshotRestores, st.Peers[0].Epochs)
	}
}

// TestRefusedSeekRecordsRestore: a resync that restores a snapshot and
// then refuses the tail beyond MaxEpochSeek still records the restore on
// the peer — its restore count, epoch and ledger — as AddPeer does, so
// the agent's and the peer's restore counts never disagree.
func TestRefusedSeekRecordsRestore(t *testing.T) {
	const saved = 5
	sys := testSystem(t, 1)
	wl := testWorkloads(sys, 42)
	dir := t.TempDir()
	b, addr, _ := newSnapResponder(t, sys, wl, dir) // an empty store: AddPeer restores nothing

	lived := continuous.New(sys, 10)
	if err := lived.SeekEpoch(saved, wl); err != nil {
		t.Fatal(err)
	}
	store, err := snapshot.NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("a", lived.Snapshot()); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ini := &nexitwire.Initiator{
		Name: "a", Cfg: nexit.DefaultDistanceConfig(),
		Epoch:   saved + MaxEpochSeek + 1,
		Eval:    nexit.NewDistanceEvaluator(sys, nexit.SideA, 10),
		Timeout: 5 * time.Second,
	}
	if _, err := ini.RunConn(nexitwire.NewConn(conn), nil, nil, sys.NumAlternatives()); err == nil ||
		!strings.Contains(err.Error(), "replay bound") {
		t.Fatalf("session past the replay bound after a restore: %v, want the bound's refusal", err)
	}
	st := b.Status()
	if st.SnapshotRestores != 1 || st.Peers[0].SnapshotRestores != 1 {
		t.Errorf("restores counted %d on the agent, %d on the peer; want 1 and 1",
			st.SnapshotRestores, st.Peers[0].SnapshotRestores)
	}
	if st.Peers[0].Epochs != saved || st.Peers[0].LedgerBalance != lived.Ledger.Balance {
		t.Errorf("peer at epoch %d, ledger %d; want the restored epoch %d, ledger %d",
			st.Peers[0].Epochs, st.Peers[0].LedgerBalance, saved, lived.Ledger.Balance)
	}
}
