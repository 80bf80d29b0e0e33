package continuous

import (
	"fmt"
	"math"

	"repro/internal/credits"
	"repro/internal/flowid"
	"repro/internal/nexit"
	"repro/internal/snapshot"
)

// Snapshot captures the controller's complete mutable epoch state —
// flow registry, credit ledger, applied assignments, nonce counter,
// epoch index — as a pure-data snapshot.State. Everything derived from
// (system, metric) alone (routing tables, base capacities, evaluator
// caches) is excluded and rebuilt on restore, so a snapshot is small
// and the determinism contract reduces to: RestoreSnapshot(Snapshot())
// is observationally the identity.
//
// The returned state shares nothing with the controller (deep copies
// throughout), so the caller may encode or persist it off the hot path
// while the controller keeps negotiating.
func (c *Controller) Snapshot() *snapshot.State {
	flows, nonce := c.Registry.Export()
	st := &snapshot.State{
		Metric: string(c.Metric),
		Epoch:  uint64(c.epoch),
		Registry: snapshot.Registry{
			SizeThreshold: c.Registry.SizeThreshold,
			StableTicks:   int64(c.Registry.StableTicks),
			IdleTimeout:   int64(c.Registry.IdleTimeout),
			Nonce:         nonce,
		},
		Ledger: snapshot.Ledger{
			Balance:   int64(c.Ledger.Balance),
			MaxCredit: int64(c.Ledger.MaxCredit),
		},
	}
	if len(flows) > 0 {
		st.Registry.Flows = make([]snapshot.Flow, len(flows))
		for i, f := range flows {
			st.Registry.Flows[i] = snapshot.Flow{
				SrcAddr:     f.Sig.Src.Addr,
				SrcBits:     uint8(f.Sig.Src.Bits),
				DstAddr:     f.Sig.Dst.Addr,
				DstBits:     uint8(f.Sig.Dst.Bits),
				Ingress:     f.Sig.Ingress,
				Size:        f.Size,
				LastSeen:    int64(f.LastSeen),
				AboveSince:  int64(f.AboveSince),
				EverStable:  f.EverStable,
				Negotiable:  f.Negotiable,
				AnnouncedAt: int64(f.AnnouncedAt),
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

// RestoreSnapshot replaces the controller's mutable epoch state with a
// previously captured snapshot, leaving everything derived from
// (system, metric) — capacities, cached evaluators, scratch — alone.
// The snapshot must have been captured under the same configuration:
// metric, registry policy knobs, and credit cap are all validated, as
// is every applied assignment against the pair (a flow between its PoPs,
// an alternative it has), and a mismatch is rejected without touching
// any state (the caller falls back to an older snapshot or epoch-0
// replay).
func (c *Controller) RestoreSnapshot(st *snapshot.State) error {
	switch {
	case st == nil:
		return fmt.Errorf("continuous: restore of a nil snapshot")
	case st.Metric != string(c.Metric):
		return fmt.Errorf("continuous: snapshot negotiates %q, controller negotiates %q", st.Metric, c.Metric)
	case st.Registry.SizeThreshold != c.Registry.SizeThreshold ||
		int(st.Registry.StableTicks) != c.Registry.StableTicks ||
		int(st.Registry.IdleTimeout) != c.Registry.IdleTimeout:
		return fmt.Errorf("continuous: snapshot registry policy (%v,%d,%d) differs from controller (%v,%d,%d)",
			st.Registry.SizeThreshold, st.Registry.StableTicks, st.Registry.IdleTimeout,
			c.Registry.SizeThreshold, c.Registry.StableTicks, c.Registry.IdleTimeout)
	case int(st.Ledger.MaxCredit) != c.Ledger.MaxCredit:
		return fmt.Errorf("continuous: snapshot credit cap %d differs from controller %d",
			st.Ledger.MaxCredit, c.Ledger.MaxCredit)
	case st.Epoch > math.MaxInt/2:
		return fmt.Errorf("continuous: snapshot epoch %d out of range", st.Epoch)
	}
	slots := newSlots(c.Sys)
	for _, a := range st.Applied {
		i, err := c.slotIndex(nexit.Direction(a.Dir), int(a.Src), int(a.Dst))
		if err != nil {
			return fmt.Errorf("continuous: snapshot assignment: %w", err)
		}
		if a.Alt < 0 || a.Alt >= int64(c.Sys.NumAlternatives()) {
			return fmt.Errorf("continuous: snapshot assigns flow (dir %d, src %d, dst %d) alternative %d of %d",
				a.Dir, a.Src, a.Dst, a.Alt, c.Sys.NumAlternatives())
		}
		slots[i].alt = int32(a.Alt)
	}

	flows := make([]flowid.FlowRecord, len(st.Registry.Flows))
	for i, f := range st.Registry.Flows {
		flows[i] = flowid.FlowRecord{
			Sig: flowid.Signature{
				Src:     flowid.Prefix{Addr: f.SrcAddr, Bits: int(f.SrcBits)},
				Dst:     flowid.Prefix{Addr: f.DstAddr, Bits: int(f.DstBits)},
				Ingress: f.Ingress,
			},
			Size:        f.Size,
			LastSeen:    int(f.LastSeen),
			AboveSince:  int(f.AboveSince),
			EverStable:  f.EverStable,
			Negotiable:  f.Negotiable,
			AnnouncedAt: int(f.AnnouncedAt),
		}
	}
	c.Registry.Restore(flows, st.Registry.Nonce)

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

	// Restore killed every handle the old table held; flows re-Track at
	// their next observation.
	c.slots = slots
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
