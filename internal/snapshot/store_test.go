package snapshot

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func stateAt(epoch uint64) *State {
	st := testState(42)
	st.Epoch = epoch
	return st
}

func mustSave(t *testing.T, s *Store, peer string, st *State) {
	t.Helper()
	if err := s.Save(peer, st); err != nil {
		t.Fatal(err)
	}
}

func TestStoreSaveLoad(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.LoadLatest("isp000", 100); err != nil || st != nil {
		t.Fatalf("empty store: got (%v, %v), want (nil, nil)", st, err)
	}
	mustSave(t, s, "isp000", stateAt(20))
	mustSave(t, s, "isp000", stateAt(40))
	mustSave(t, s, "isp001", stateAt(30))

	st, err := s.LoadLatest("isp000", 100)
	if err != nil || st == nil || st.Epoch != 40 {
		t.Fatalf("got (%+v, %v), want epoch 40", st, err)
	}
	if !reflect.DeepEqual(st, stateAt(40)) {
		t.Error("loaded state differs from saved state")
	}
	// maxEpoch bounds the pick: a snapshot ahead of the target epoch is
	// useless for seeking to it.
	if st, _ := s.LoadLatest("isp000", 25); st == nil || st.Epoch != 20 {
		t.Errorf("maxEpoch=25 picked %+v, want epoch 20", st)
	}
	if st, _ := s.LoadLatest("isp000", 19); st != nil {
		t.Errorf("maxEpoch=19 picked %+v, want nil", st)
	}
	// Peers are isolated.
	if st, _ := s.LoadLatest("isp001", 100); st == nil || st.Epoch != 30 {
		t.Errorf("isp001 got %+v, want epoch 30", st)
	}
	// The peer adapter sees the same snapshots.
	if st, err := s.Peer("isp000").LoadLatest(100); err != nil || st == nil || st.Epoch != 40 {
		t.Errorf("Peer adapter got (%+v, %v), want epoch 40", st, err)
	}
}

func TestStoreRetention(t *testing.T) {
	s, err := NewStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []uint64{10, 20, 30, 40} {
		mustSave(t, s, "isp000", stateAt(e))
	}
	epochs, err := s.epochs("isp000")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(epochs, []uint64{40, 30}) {
		t.Errorf("retained epochs %v, want [40 30]", epochs)
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(s.dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("stray temp file %s survived save", e.Name())
		}
	}
}

// TestStoreCorruptionFallback is the fallback ladder end to end: a
// corrupted newest snapshot silently falls back to the next older one,
// and when every snapshot is corrupt LoadLatest reports none — never an
// error that would wedge recovery, and never a silent load of bad data.
func TestStoreCorruptionFallback(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []uint64{10, 20, 30} {
		mustSave(t, s, "isp000", stateAt(e))
	}
	corrupt := func(epoch uint64) {
		path := filepath.Join(dir, fileName("isp000", epoch))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	corrupt(30)
	if st, err := s.LoadLatest("isp000", 100); err != nil || st == nil || st.Epoch != 20 {
		t.Fatalf("after corrupting epoch 30: got (%+v, %v), want fallback to epoch 20", st, err)
	}
	// A truncated file (torn write under a valid name, which the atomic
	// protocol prevents but the reader still tolerates) is skipped too.
	path := filepath.Join(dir, fileName("isp000", 20))
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := s.LoadLatest("isp000", 100); err != nil || st == nil || st.Epoch != 10 {
		t.Fatalf("after truncating epoch 20: got (%+v, %v), want fallback to epoch 10", st, err)
	}
	corrupt(10)
	if st, err := s.LoadLatest("isp000", 100); err != nil || st != nil {
		t.Fatalf("all corrupt: got (%+v, %v), want (nil, nil) → epoch-0 replay", st, err)
	}
}

// TestStoreMislabeledSnapshot: a snapshot whose payload epoch disagrees
// with its file name is internally inconsistent and must be skipped.
func TestStoreMislabeledSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	mustSave(t, s, "isp000", stateAt(10))
	data, err := Encode(stateAt(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fileName("isp000", 50)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := s.LoadLatest("isp000", 100); err != nil || st == nil || st.Epoch != 10 {
		t.Fatalf("got (%+v, %v), want the honest epoch-10 snapshot", st, err)
	}
}

func TestStoreRejectsBadPeerNames(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, peer := range []string{"", "a/b", "..", "a\x00b"} {
		if err := s.Save(peer, stateAt(1)); err == nil {
			t.Errorf("Save accepted peer name %q", peer)
		}
		if _, err := s.LoadLatest(peer, 10); err == nil {
			t.Errorf("LoadLatest accepted peer name %q", peer)
		}
	}
}
