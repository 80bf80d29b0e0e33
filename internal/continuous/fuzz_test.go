package continuous

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pairsim"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// fuzzSystem picks the smallest pair of the 10-ISP test universe that is
// large enough for the snapshot package's golden state to restore into:
// its applied assignments reach A's PoP 6, B's PoP 9 and alternative 3.
func fuzzSystem(f testing.TB) *pairsim.System {
	var best *topology.Pair
	for _, p := range topology.AllPairs(testISPs(f), 4, true) {
		if len(p.A.PoPs) >= 7 && len(p.B.PoPs) >= 10 &&
			(best == nil || len(p.A.PoPs)*len(p.B.PoPs) < len(best.A.PoPs)*len(best.B.PoPs)) {
			best = p
		}
	}
	if best == nil {
		f.Fatal("no pair large enough for the snapshot golden")
	}
	return pairsim.New(best, nil)
}

// reseal returns a copy of a snapshot frame ("NXSNAP" | version u16 |
// payload length u32 | payload | crc32) with the length and checksum
// made true of whatever the payload now is.
func reseal(data []byte) []byte {
	const header, trailer = 12, 4
	if len(data) < header+trailer {
		return data
	}
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(out)-header-trailer))
	binary.LittleEndian.PutUint32(out[len(out)-trailer:], crc32.ChecksumIEEE(out[:len(out)-trailer]))
	return out
}

// FuzzRestoreSnapshot walks the recovery path a state directory feeds:
// bytes -> snapshot.Decode -> RestoreSnapshot into a real controller.
// Decode vouches only for the encoding; whatever it lets through,
// RestoreSnapshot must either refuse without touching the controller or
// leave one that works — the next Epoch does not panic (it may report an
// error) and the state it leaves re-encodes.
func FuzzRestoreSnapshot(f *testing.F) {
	sys := fuzzSystem(f)
	wl := epochWorkloads(sys)

	golden, err := os.ReadFile(filepath.Join("..", "snapshot", "testdata", "v1.snap.golden"))
	if err != nil {
		f.Fatal(err)
	}
	if st, err := snapshot.Decode(golden); err != nil {
		f.Fatal(err)
	} else if err := New(sys, 10).RestoreSnapshot(st); err != nil {
		f.Fatalf("the golden snapshot no longer restores into the fuzz pair: %v", err)
	}
	f.Add(golden)
	// A lived controller's own snapshot: every flow of the pair tracked,
	// most of them negotiable and installed.
	lived := New(sys, 10)
	if err := lived.SeekEpoch(3, wl); err != nil {
		f.Fatal(err)
	}
	own, err := snapshot.Encode(lived.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(own)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := snapshot.Decode(data)
		if err != nil {
			// Nearly every mutation dies on the frame's length or checksum,
			// which FuzzSnapshotDecode covers; seal the frame again so that
			// mutated payload fields reach RestoreSnapshot.
			if st, err = snapshot.Decode(reseal(data)); err != nil {
				return
			}
		}
		c := New(sys, 10)
		if err := c.RestoreSnapshot(st); err != nil {
			if c.EpochIndex() != 0 || len(c.Snapshot().Registry.Flows) != 0 || len(c.Snapshot().Applied) != 0 {
				t.Fatalf("rejected restore (%v) touched the controller", err)
			}
			return
		}
		_, _ = c.Epoch(wl(c.EpochIndex())) // an error is an answer; a panic is not
		if _, err := snapshot.Encode(c.Snapshot()); err != nil {
			t.Fatalf("state after restore + epoch does not re-encode: %v", err)
		}
	})
}
