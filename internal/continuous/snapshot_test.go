package continuous

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

// TestSnapshotTailReplayParity is the snapshot determinism contract:
// for every metric and snapshot interval, a fresh controller restored
// from the newest on-disk snapshot plus a tail replay must be
// DeepEqual-identical — registry, ledger, applied assignments, nonce
// position, epoch counter — to one that fully replayed from epoch 0,
// and every subsequent epoch report must match a controller that lived
// through the whole history. (The wire-session half of the contract —
// that a restored agent's sessions are byte-identical on the wire — is
// pinned by the mesh recovery tests, which run real nexitwire sessions
// against snapshot-restored agents and compare with the serial
// reference.)
func TestSnapshotTailReplayParity(t *testing.T) {
	sys := testSystem(t)
	const total = 7
	for _, metric := range Metrics() {
		for _, interval := range []int{1, 3} {
			t.Run(string(metric)+"/interval"+string(rune('0'+interval)), func(t *testing.T) {
				wl := epochWorkloads(sys)
				store, err := snapshot.NewStore(filepath.Join(t.TempDir(), "snaps"), 100)
				if err != nil {
					t.Fatal(err)
				}

				// The lived controller both defines ground truth and writes
				// the snapshots, exactly like a long-running agent would.
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
					if lived.EpochIndex()%interval == 0 {
						if err := store.Save("pair", lived.Snapshot()); err != nil {
							t.Fatal(err)
						}
					}
				}

				for _, target := range []int{4, total} {
					wantRestore := target - target%interval // newest snapshot ≤ target
					full, err := NewWithMetric(sys, 10, metric, nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := full.SeekEpoch(target, wl); err != nil {
						t.Fatal(err)
					}
					fast, err := NewWithMetric(sys, 10, metric, nil)
					if err != nil {
						t.Fatal(err)
					}
					restored, err := fast.SeekEpochFrom(target, wl, store.Peer("pair"))
					if err != nil {
						t.Fatal(err)
					}
					if restored != wantRestore {
						t.Fatalf("target %d: restored from epoch %d, want %d (tail-only replay)",
							target, restored, wantRestore)
					}
					if fast.EpochIndex() != target {
						t.Fatalf("target %d: fast controller at epoch %d", target, fast.EpochIndex())
					}
					// State parity: the snapshot-restored controller is
					// indistinguishable from the full replay...
					if !reflect.DeepEqual(full.Snapshot(), fast.Snapshot()) {
						t.Fatalf("target %d: restore+tail state diverged from full replay:\n full %+v\n fast %+v",
							target, full.Snapshot(), fast.Snapshot())
					}
					// ...and stays indistinguishable: every later epoch matches
					// the lived-through history report for report.
					for epoch := target; epoch < total; epoch++ {
						fullRep, err := full.Epoch(wl(epoch))
						if err != nil {
							t.Fatal(err)
						}
						fastRep, err := fast.Epoch(wl(epoch))
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(fastRep, want[epoch]) {
							t.Errorf("epoch %d after restore diverged from lived history:\n fast  %+v\n lived %+v",
								epoch, fastRep, want[epoch])
						}
						if !reflect.DeepEqual(fullRep, want[epoch]) {
							t.Errorf("epoch %d after full replay diverged from lived history", epoch)
						}
					}
				}
			})
		}
	}
}

// TestSnapshotRestoreIdentity: RestoreSnapshot(Snapshot()) onto a fresh
// controller reproduces the original exactly, including the nonce
// position (a restored registry must not mint colliding ingress IDs).
func TestSnapshotRestoreIdentity(t *testing.T) {
	sys := testSystem(t)
	wl := epochWorkloads(sys)
	c := New(sys, 10)
	for epoch := 0; epoch < 4; epoch++ {
		if _, err := c.Epoch(wl(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Snapshot()
	r := New(sys, 10)
	if err := r.RestoreSnapshot(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshot(), st) {
		t.Fatal("RestoreSnapshot(Snapshot()) is not the identity")
	}
	if r.EpochIndex() != c.EpochIndex() {
		t.Fatalf("epoch %d after restore, want %d", r.EpochIndex(), c.EpochIndex())
	}
	// The snapshot is a deep copy: mutating the restored controller
	// must not reach back into the captured state.
	if _, err := r.Epoch(wl(r.EpochIndex())); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != uint64(c.EpochIndex()) {
		t.Fatal("advancing the restored controller mutated the captured snapshot")
	}
}

// TestRestoreSnapshotRejectsMismatch: a snapshot captured under a
// different configuration is rejected outright by RestoreSnapshot and
// treated as missing by RestoreLatest — recovery degrades to replay,
// never restores wrong state.
func TestRestoreSnapshotRejectsMismatch(t *testing.T) {
	sys := testSystem(t)
	wl := epochWorkloads(sys)
	c := New(sys, 10)
	for epoch := 0; epoch < 3; epoch++ {
		if _, err := c.Epoch(wl(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Snapshot()

	if err := New(sys, 10).RestoreSnapshot(nil); err == nil {
		t.Error("nil snapshot restored")
	}
	bw, err := NewWithMetric(sys, 10, MetricBandwidth, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.RestoreSnapshot(st); err == nil {
		t.Error("distance snapshot restored into a bandwidth controller")
	}
	if err := New(sys, 5).RestoreSnapshot(st); err == nil {
		t.Error("snapshot restored across a different credit cap")
	}
	bad := c.Snapshot()
	bad.Registry.StableTicks++
	if err := New(sys, 10).RestoreSnapshot(bad); err == nil {
		t.Error("snapshot restored across different registry policy")
	}

	// RestoreLatest: mismatch behaves like no snapshot at all.
	mismatched := New(sys, 5)
	restored, err := mismatched.RestoreLatest(10, sourceOf(st))
	if err != nil || restored != -1 || mismatched.EpochIndex() != 0 {
		t.Errorf("mismatched RestoreLatest = (%d, %v) at epoch %d, want (-1, nil) at 0",
			restored, err, mismatched.EpochIndex())
	}
	// A stale snapshot (at or behind the controller) is ignored too.
	ahead := New(sys, 10)
	if err := ahead.SeekEpoch(5, wl); err != nil {
		t.Fatal(err)
	}
	if restored, err := ahead.RestoreLatest(10, sourceOf(st)); err != nil || restored != -1 {
		t.Errorf("stale snapshot restore = (%d, %v), want (-1, nil)", restored, err)
	}
	// And a nil source is a clean no-op.
	if restored, err := New(sys, 10).RestoreLatest(10, nil); err != nil || restored != -1 {
		t.Errorf("nil source restore = (%d, %v), want (-1, nil)", restored, err)
	}
}

// TestRestoreSnapshotRejectsBadAssignment: an applied assignment that
// names a flow the pair does not have, or an alternative it does not
// have, is refused at restore time with a labelled error and leaves the
// controller exactly as it was — not accepted and tripped over epochs
// later inside the engine.
func TestRestoreSnapshotRejectsBadAssignment(t *testing.T) {
	sys := testSystem(t)
	wl := epochWorkloads(sys)
	src := New(sys, 10)
	if err := src.SeekEpoch(4, wl); err != nil {
		t.Fatal(err)
	}
	nA, nB, alts := int64(len(sys.Pair.A.PoPs)), int64(len(sys.Pair.B.PoPs)), int64(sys.NumAlternatives())
	if nA >= nB {
		t.Fatalf("test pair is %d x %d; the cases below need A smaller than B", nA, nB)
	}
	for name, bad := range map[string]snapshot.Assignment{
		"direction":         {Dir: 2},
		"A->B src past A":   {Dir: 0, Src: nA},
		"A->B dst past B":   {Dir: 0, Dst: nB},
		"B->A src past B":   {Dir: 1, Src: nB},
		"B->A dst past A":   {Dir: 1, Dst: nA},
		"negative src":      {Src: -1},
		"negative dst":      {Dst: -1},
		"src wraps int32":   {Src: 1 << 32},
		"alt past the pair": {Alt: alts},
		"negative alt":      {Alt: -1},
	} {
		st := src.Snapshot()
		st.Applied = append(st.Applied, bad)
		c := New(sys, 10)
		if err := c.SeekEpoch(2, wl); err != nil {
			t.Fatal(err)
		}
		before := c.Snapshot()
		err := c.RestoreSnapshot(st)
		if err == nil || !strings.HasPrefix(err.Error(), "continuous: snapshot assign") {
			t.Errorf("%s: RestoreSnapshot error = %v, want a labelled assignment error", name, err)
		}
		if !reflect.DeepEqual(c.Snapshot(), before) {
			t.Errorf("%s: rejected restore changed the controller", name)
		}
		if _, err := c.Epoch(wl(2)); err != nil {
			t.Errorf("%s: controller unusable after the rejected restore: %v", name, err)
		}
	}
	// The corners of both halves of the table are legal.
	st := src.Snapshot()
	st.Applied = []snapshot.Assignment{
		{Dir: 0, Src: nA - 1, Dst: nB - 1, Alt: alts - 1},
		{Dir: 1, Src: nB - 1, Dst: nA - 1, Alt: 0},
	}
	c := New(sys, 10)
	if err := c.RestoreSnapshot(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Snapshot(), st) {
		t.Error("corner assignments did not survive a restore")
	}
}

// TestRestoreLeavesOutForeignRecords: a record whose key names no flow
// of the pair is left out at restore, since no observation can reach
// it; everything else of the snapshot is carried. The v1 golden's five
// random records are such records for the fuzz pair. A lived
// controller's own snapshot still restores to the identity.
func TestRestoreLeavesOutForeignRecords(t *testing.T) {
	sys := fuzzSystem(t)
	golden, err := os.ReadFile(filepath.Join("..", "snapshot", "testdata", "v1.snap.golden"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Decode(golden)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Registry.Flows) != 5 {
		t.Fatalf("the golden carries %d flow records, want 5", len(st.Registry.Flows))
	}
	c := New(sys, 10)
	if err := c.RestoreSnapshot(st); err != nil {
		t.Fatal(err)
	}
	want := *st
	want.Registry.Flows = nil
	if got := c.Snapshot(); !reflect.DeepEqual(got, &want) {
		t.Errorf("after restoring the golden:\n got  %+v\n want %+v", got, &want)
	}

	lived := New(sys, 10)
	if err := lived.SeekEpoch(3, epochWorkloads(sys)); err != nil {
		t.Fatal(err)
	}
	own := lived.Snapshot()
	if len(own.Registry.Flows) == 0 {
		t.Fatal("the lived controller tracks no flow")
	}
	r := New(sys, 10)
	if err := r.RestoreSnapshot(own); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshot(), own) {
		t.Error("a lived controller's own snapshot does not restore to the identity")
	}
}

// TestRestoreAllocsIndependentOfFlows guards the restore path: restoring
// a snapshot allocates the flow table once, whatever the number of flow
// records, and Snapshot presizes what it returns. The small snapshot is
// the large one cut to its first eight records, so nothing else differs.
func TestRestoreAllocsIndependentOfFlows(t *testing.T) {
	sys := testSystem(t)
	lived := New(sys, 10)
	if err := lived.SeekEpoch(3, epochWorkloads(sys)); err != nil {
		t.Fatal(err)
	}
	large := lived.Snapshot()
	small := *large
	small.Registry.Flows = large.Registry.Flows[:8]
	if len(large.Registry.Flows) < 40*len(small.Registry.Flows) {
		t.Fatalf("test pair tracks only %d flows", len(large.Registry.Flows))
	}
	allocs := func(st *snapshot.State) (restore, snap float64) {
		c := New(sys, 10)
		restore = testing.AllocsPerRun(20, func() {
			if err := c.RestoreSnapshot(st); err != nil {
				t.Fatal(err)
			}
		})
		return restore, testing.AllocsPerRun(20, func() { c.Snapshot() })
	}
	smallRestore, smallSnap := allocs(&small)
	largeRestore, largeSnap := allocs(large)
	if largeRestore > smallRestore || largeSnap > smallSnap {
		t.Errorf("%d flow records: restore allocates %.0f times, Snapshot %.0f; %d records: %.0f and %.0f",
			len(large.Registry.Flows), largeRestore, largeSnap, len(small.Registry.Flows), smallRestore, smallSnap)
	}
}

// sourceOf wraps a fixed state as a SnapshotSource.
type fixedSource struct{ st *snapshot.State }

func sourceOf(st *snapshot.State) SnapshotSource { return fixedSource{st} }

func (f fixedSource) LoadLatest(maxEpoch int) (*snapshot.State, error) {
	if f.st != nil && f.st.Epoch <= uint64(maxEpoch) {
		return f.st, nil
	}
	return nil, nil
}
