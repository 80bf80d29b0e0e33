package snapshot

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// DefaultKeep is how many snapshots per peer a Store retains when the
// caller does not say: the newest plus two fallbacks, so a torn or
// corrupted write never strands a peer on epoch-0 replay.
const DefaultKeep = 3

// Store persists per-peer snapshots in one directory — an agent's
// -state-dir. Writes are atomic (unique temp file, fsync, rename), so a
// crash — SIGKILL included — leaves either the previous snapshot set or
// the new one, never a half-written file under a valid name. Retention
// keeps the newest Keep snapshots per peer; older ones are pruned after
// each save.
//
// Reads are defensive: LoadLatest walks the peer's snapshots newest
// first and returns the first one that decodes cleanly, skipping
// corrupt or unreadable files — the fallback ladder. When nothing is
// usable it returns nil, and the caller replays from epoch 0.
//
// A Store is safe for concurrent use by multiple goroutines (the agent
// writes snapshots off the hot path); concurrent saves for the same
// peer and epoch are idempotent last-writer-wins renames.
type Store struct {
	dir  string
	keep int
}

// NewStore opens (creating if needed) a snapshot directory retaining
// keep snapshots per peer (DefaultKeep when keep <= 0).
func NewStore(dir string, keep int) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("snapshot: store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if keep <= 0 {
		keep = DefaultKeep
	}
	return &Store{dir: dir, keep: keep}, nil
}

// fileName is the canonical snapshot file name for (peer, epoch). The
// fixed-width epoch makes lexical order equal epoch order.
func fileName(peer string, epoch uint64) string {
	return fmt.Sprintf("%s-%012d.snap", peer, epoch)
}

// checkPeer rejects peer names that would escape the store directory or
// break file-name parsing.
func checkPeer(peer string) error {
	if peer == "" || peer == "." || peer == ".." ||
		strings.ContainsAny(peer, "/\\\x00") || peer != filepath.Base(peer) {
		return fmt.Errorf("snapshot: peer name %q is not a valid file-name component", peer)
	}
	return nil
}

// Save atomically persists one peer snapshot and prunes that peer's
// files beyond the retention bound. The write protocol — encode, unique
// temp file, fsync, rename onto the canonical name — guarantees a
// reader (or a post-crash restart) only ever sees complete snapshots.
func (s *Store) Save(peer string, st *State) error {
	if err := checkPeer(peer); err != nil {
		return err
	}
	data, err := Encode(st)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, fileName(peer, st.Epoch)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, fileName(peer, st.Epoch))); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	s.prune(peer)
	return nil
}

// epochs lists the peer's snapshot epochs, newest first.
func (s *Store) epochs(peer string) ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	prefix := peer + "-"
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".snap") {
			continue
		}
		digits := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".snap")
		epoch, err := strconv.ParseUint(digits, 10, 64)
		if err != nil || fileName(peer, epoch) != name {
			continue // stray temp file or foreign name; not ours to touch
		}
		out = append(out, epoch)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out, nil
}

// prune removes the peer's snapshots beyond the retention bound.
// Best-effort: a racing remove or a permission error costs disk, not
// correctness.
func (s *Store) prune(peer string) {
	epochs, err := s.epochs(peer)
	if err != nil {
		return
	}
	for _, epoch := range epochs[min(s.keep, len(epochs)):] {
		os.Remove(filepath.Join(s.dir, fileName(peer, epoch)))
	}
}

// LoadLatest returns the peer's newest usable snapshot at or below
// maxEpoch, walking the fallback ladder: files that are missing,
// truncated, corrupted, from an unimplemented version, or internally
// inconsistent (a payload epoch disagreeing with the file name) are
// skipped in favor of the next-older snapshot. (nil, nil) means no
// usable snapshot exists and the caller replays from epoch 0 — a
// corrupt store degrades recovery cost, never correctness.
func (s *Store) LoadLatest(peer string, maxEpoch int) (*State, error) {
	if err := checkPeer(peer); err != nil {
		return nil, err
	}
	epochs, err := s.epochs(peer)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	if maxEpoch < 0 {
		maxEpoch = 0
	}
	for _, epoch := range epochs {
		if epoch > uint64(maxEpoch) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, fileName(peer, epoch)))
		if err != nil {
			continue // racing prune or unreadable file: next rung
		}
		st, err := Decode(data)
		if err != nil || st.Epoch != epoch {
			continue // corrupt, foreign-version, or mislabeled: next rung
		}
		return st, nil
	}
	return nil, nil
}

// Peer binds the store to one peer, satisfying the snapshot-source
// shape consumers like continuous.Controller.RestoreLatest expect.
func (s *Store) Peer(name string) *PeerStore {
	return &PeerStore{s: s, peer: name}
}

// PeerStore is a single peer's view of a Store.
type PeerStore struct {
	s    *Store
	peer string
}

// LoadLatest returns the peer's newest usable snapshot at or below
// maxEpoch (nil when none).
func (p *PeerStore) LoadLatest(maxEpoch int) (*State, error) {
	return p.s.LoadLatest(p.peer, maxEpoch)
}
