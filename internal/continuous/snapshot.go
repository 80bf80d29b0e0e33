package continuous

import (
	"fmt"
	"math"

	"repro/internal/credits"
	"repro/internal/nexit"
	"repro/internal/snapshot"
)

// Snapshot captures the controller's complete mutable epoch state —
// flow table, credit ledger, nonce position, epoch index — as a
// pure-data snapshot.State. Everything derived from (system, metric)
// alone (routing tables, base capacities, evaluator caches) is excluded
// and rebuilt on restore, so a snapshot is small and the determinism
// contract reduces to: RestoreSnapshot(Snapshot()) is observationally
// the identity.
//
// The returned state shares nothing with the controller (deep copies
// throughout), so the caller may encode or persist it off the hot path
// while the controller keeps negotiating.
func (c *Controller) Snapshot() *snapshot.State {
	st := &snapshot.State{
		Metric: string(c.Metric),
		Epoch:  uint64(c.epoch),
		Registry: snapshot.Registry{
			SizeThreshold: sizeThreshold,
			StableTicks:   stableTicks,
			IdleTimeout:   idleTimeout,
			Nonce:         c.nonce,
		},
		Ledger: snapshot.Ledger{
			Balance:   int64(c.Ledger.Balance),
			MaxCredit: int64(c.Ledger.MaxCredit),
		},
	}
	tracked := 0
	for _, sl := range c.slots {
		if sl.tracked {
			tracked++
		}
	}
	if tracked > 0 {
		// Records go in signature order, which is (src, dst, dir).
		st.Registry.Flows = make([]snapshot.Flow, 0, tracked)
		n := max(len(c.Sys.Pair.A.PoPs), len(c.Sys.Pair.B.PoPs))
		for src := range n {
			for dst := range n {
				for _, dir := range [2]nexit.Direction{nexit.AtoB, nexit.BtoA} {
					i, ok := c.slotIndex(dir, src, dst)
					if !ok || !c.slots[i].tracked {
						continue
					}
					sl, f := &c.slots[i], signature(dir, src, dst)
					f.Size, f.LastSeen, f.AboveSince = sl.size, int64(sl.lastSeen), int64(sl.aboveSince)
					f.EverStable, f.Negotiable, f.AnnouncedAt = sl.everStable, sl.negotiable, int64(sl.announcedAt)
					st.Registry.Flows = append(st.Registry.Flows, f)
				}
			}
		}
	}
	if len(c.Ledger.History) > 0 {
		st.Ledger.History = make([]snapshot.LedgerEntry, len(c.Ledger.History))
		for i, e := range c.Ledger.History {
			st.Ledger.History[i] = snapshot.LedgerEntry{
				Session:      int64(e.Session),
				GainA:        int64(e.GainA),
				GainB:        int64(e.GainB),
				BalanceAfter: int64(e.BalanceAfter),
			}
		}
	}
	for i, sl := range c.slots { // index order is canonical (Dir, Src, Dst) order
		if sl.alt < 0 {
			continue
		}
		dir, src, dst := c.slotKey(i)
		st.Applied = append(st.Applied, snapshot.Assignment{
			Dir: uint8(dir), Src: int64(src), Dst: int64(dst), Alt: int64(sl.alt),
		})
	}
	return st
}

// signature is the v1 snapshot record key of a flow of the pair: the
// source and destination prefixes and the ingress identifier of the
// paper's §6 flow signature, all derived from (dir, src, dst). Only the
// key fields are set.
func signature(dir nexit.Direction, src, dst int) snapshot.Flow {
	return snapshot.Flow{
		SrcAddr: uint32(src) << 16, SrcBits: 16,
		DstAddr: 0x80000000 | uint32(dst)<<16, DstBits: 16,
		Ingress: uint64(dir)<<32 | uint64(src)<<16 | uint64(dst),
	}
}

// recordSlot is signature's inverse: the slot whose signature is the
// record's key, or false when the record names no flow of the pair.
func (c *Controller) recordSlot(f *snapshot.Flow) (int, bool) {
	// The ingress identifier carries (dir, src, dst); the key comparison
	// rejects whatever else a decoded record holds.
	i, ok := c.slotIndex(nexit.Direction(f.Ingress>>32), int(f.Ingress>>16&0xFFFF), int(f.Ingress&0xFFFF))
	if !ok {
		return 0, false
	}
	key := snapshot.Flow{SrcAddr: f.SrcAddr, SrcBits: f.SrcBits, DstAddr: f.DstAddr, DstBits: f.DstBits, Ingress: f.Ingress}
	return i, key == signature(c.slotKey(i))
}

// RestoreSnapshot replaces the controller's mutable epoch state with a
// previously captured snapshot, leaving everything derived from
// (system, metric) — capacities, cached evaluators, scratch — alone.
// The snapshot must have been captured under the same configuration:
// metric, stability policy, and credit cap are all validated, as is
// every applied assignment against the pair (a flow between its PoPs,
// an alternative it has), and a mismatch is rejected without touching
// any state (the caller falls back to an older snapshot or epoch-0
// replay). A flow record whose key is no flow of the pair is left out:
// no observation can reach it.
func (c *Controller) RestoreSnapshot(st *snapshot.State) error {
	switch {
	case st == nil:
		return fmt.Errorf("continuous: restore of a nil snapshot")
	case st.Metric != string(c.Metric):
		return fmt.Errorf("continuous: snapshot negotiates %q, controller negotiates %q", st.Metric, c.Metric)
	case st.Registry.SizeThreshold != sizeThreshold ||
		st.Registry.StableTicks != stableTicks ||
		st.Registry.IdleTimeout != idleTimeout:
		return fmt.Errorf("continuous: snapshot registry policy (%v,%d,%d) differs from controller (%v,%d,%d)",
			st.Registry.SizeThreshold, st.Registry.StableTicks, st.Registry.IdleTimeout,
			sizeThreshold, stableTicks, idleTimeout)
	case int(st.Ledger.MaxCredit) != c.Ledger.MaxCredit:
		return fmt.Errorf("continuous: snapshot credit cap %d differs from controller %d",
			st.Ledger.MaxCredit, c.Ledger.MaxCredit)
	case st.Epoch > math.MaxInt/2:
		return fmt.Errorf("continuous: snapshot epoch %d out of range", st.Epoch)
	}
	slots := newSlots(c.Sys)
	for _, a := range st.Applied {
		i, ok := c.slotIndex(nexit.Direction(a.Dir), int(a.Src), int(a.Dst))
		if !ok {
			return fmt.Errorf("continuous: snapshot assignment: flow (dir %d, src %d, dst %d) is not between PoPs of %v",
				a.Dir, a.Src, a.Dst, c.Sys.Pair)
		}
		if a.Alt < 0 || a.Alt >= int64(c.Sys.NumAlternatives()) {
			return fmt.Errorf("continuous: snapshot assigns flow (dir %d, src %d, dst %d) alternative %d of %d",
				a.Dir, a.Src, a.Dst, a.Alt, c.Sys.NumAlternatives())
		}
		slots[i].alt = int32(a.Alt)
	}
	for k := range st.Registry.Flows {
		f := &st.Registry.Flows[k]
		if i, ok := c.recordSlot(f); ok {
			slots[i] = slot{alt: slots[i].alt, tracked: true, negotiable: f.Negotiable, everStable: f.EverStable,
				size: f.Size, lastSeen: int(f.LastSeen), aboveSince: int(f.AboveSince), announcedAt: int(f.AnnouncedAt)}
		}
	}

	c.Ledger.Balance = int(st.Ledger.Balance)
	c.Ledger.History = nil
	for _, e := range st.Ledger.History {
		c.Ledger.History = append(c.Ledger.History, credits.Entry{
			Session:      int(e.Session),
			GainA:        int(e.GainA),
			GainB:        int(e.GainB),
			BalanceAfter: int(e.BalanceAfter),
		})
	}
	c.slots = slots
	c.nonce = st.Registry.Nonce
	c.epoch = int(st.Epoch)
	return nil
}

// SnapshotSource supplies previously captured snapshots — usually a
// snapshot.Store bound to one peer (Store.Peer). LoadLatest returns the
// newest usable snapshot at or below maxEpoch, or nil when none exists;
// corrupt snapshots must already have been skipped (the store's
// fallback ladder).
type SnapshotSource interface {
	LoadLatest(maxEpoch int) (*snapshot.State, error)
}

// RestoreLatest fast-forwards the controller by snapshot alone: it
// restores the newest usable snapshot at or below maxEpoch, provided
// the snapshot is ahead of the controller's current epoch, and returns
// the epoch restored to (-1 when no snapshot was used). A snapshot the
// controller's configuration rejects is treated like a missing one —
// recovery degrades to replay, never fails outright. A nil source is a
// no-op.
func (c *Controller) RestoreLatest(maxEpoch int, src SnapshotSource) (int, error) {
	if src == nil {
		return -1, nil
	}
	st, err := src.LoadLatest(maxEpoch)
	if err != nil {
		return -1, fmt.Errorf("continuous: loading snapshot: %w", err)
	}
	if st == nil || st.Epoch <= uint64(c.epoch) {
		return -1, nil
	}
	if err := c.RestoreSnapshot(st); err != nil {
		return -1, nil // configuration mismatch: pretend it wasn't there
	}
	return c.epoch, nil
}

// SeekEpochFrom is SeekEpoch with snapshot acceleration: the newest
// usable snapshot at or below n is restored first and only the tail
// since it is replayed, turning restart cost from O(lifetime) into
// O(epochs-since-snapshot). It returns the epoch restored from (-1 when
// the whole distance was replayed) so callers can report tail-only
// recovery. With a nil source it degrades to plain SeekEpoch.
func (c *Controller) SeekEpochFrom(n int, workloads WorkloadFunc, src SnapshotSource) (int, error) {
	if n < c.epoch {
		return -1, fmt.Errorf("continuous: cannot seek backwards from epoch %d to %d", c.epoch, n)
	}
	restored, err := c.RestoreLatest(n, src)
	if err != nil {
		return -1, err
	}
	return restored, c.SeekEpoch(n, workloads)
}
