package continuous

import (
	"reflect"
	"testing"

	"repro/internal/nexit"
	"repro/internal/snapshot"
	"repro/internal/traffic"
)

// oneFlow drives a controller with a single A->B flow (PoP 0 to PoP 0)
// whose size each epoch is sizes[epoch]; a negative size leaves the flow
// out of that epoch. It returns each epoch's report and the flow's
// snapshot record after it (nil while untracked).
func oneFlow(t *testing.T, c *Controller, sizes []float64) ([]*EpochReport, []*snapshot.Flow) {
	t.Helper()
	var reps []*EpochReport
	var recs []*snapshot.Flow
	for epoch, size := range sizes {
		w := &traffic.Workload{}
		if size >= 0 {
			w.Flows = []traffic.Flow{{Src: 0, Dst: 0, Size: size}}
		}
		rep, err := c.Epoch(w, &traffic.Workload{})
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		reps = append(reps, rep)
		var rec *snapshot.Flow
		if flows := c.Snapshot().Registry.Flows; len(flows) == 1 {
			rec = &flows[0]
		} else if len(flows) > 1 {
			t.Fatalf("epoch %d: %d records for one flow", epoch, len(flows))
		}
		recs = append(recs, rec)
	}
	return reps, recs
}

// TestSlotPromotion: a flow is negotiated only once it has stayed at or
// above the size threshold for stableTicks epochs, is announced once,
// and stays negotiable.
func TestSlotPromotion(t *testing.T) {
	const below, above = sizeThreshold / 2, 4 * sizeThreshold
	reps, recs := oneFlow(t, New(testSystem(t), 10), []float64{below, below, below, above, above, above})
	for epoch, rep := range reps {
		want := 0
		if epoch >= 3+stableTicks {
			want = 1
		}
		if rep.Negotiated != want {
			t.Errorf("epoch %d: %d flows negotiated, want %d", epoch, rep.Negotiated, want)
		}
	}
	if r := recs[2]; r == nil || r.AboveSince != -1 || r.Negotiable || r.Size != below {
		t.Errorf("below the threshold the record is %+v, want tracked with AboveSince -1", r)
	}
	want := signature(nexit.AtoB, 0, 0)
	want.Size, want.LastSeen, want.AboveSince = above, 5, 3
	want.EverStable, want.Negotiable, want.AnnouncedAt = true, true, 3+stableTicks
	if got := recs[5]; got == nil || *got != want {
		t.Errorf("promoted record %+v, want %+v", got, want)
	}
}

// TestSlotThresholdReset: a dip below the threshold restarts the
// stability window of a flow not yet negotiable, and leaves a
// negotiable flow negotiable.
func TestSlotThresholdReset(t *testing.T) {
	const below, above = sizeThreshold / 2, 4 * sizeThreshold
	reps, recs := oneFlow(t, New(testSystem(t), 10),
		[]float64{above, below, above, above, above, below, above})
	wantNegotiated := []int{0, 0, 0, 1, 1, 1, 1}
	wantAbove := []int64{0, -1, 2, 2, 2, -1, 6}
	for epoch, rep := range reps {
		if rep.Negotiated != wantNegotiated[epoch] || recs[epoch].AboveSince != wantAbove[epoch] {
			t.Errorf("epoch %d: %d negotiated, AboveSince %d; want %d, %d",
				epoch, rep.Negotiated, recs[epoch].AboveSince, wantNegotiated[epoch], wantAbove[epoch])
		}
	}
	if r := recs[5]; !r.Negotiable || r.AnnouncedAt != 3 {
		t.Errorf("after the dip the record is %+v, want negotiable since epoch 3", r)
	}
}

// TestSlotExpiry: a tracked flow unseen for more than idleTimeout
// epochs times out — counted once, its record gone, its installed path
// kept — and returns as a fresh flow.
func TestSlotExpiry(t *testing.T) {
	const size = 4 * sizeThreshold
	sizes := []float64{size, size, size}
	for range idleTimeout + 1 {
		sizes = append(sizes, -1)
	}
	sizes = append(sizes, size)
	c := New(testSystem(t), 10)
	reps, recs := oneFlow(t, c, sizes)
	gone := 2 + idleTimeout + 1 // last seen at epoch 2
	for epoch, rep := range reps {
		wantExpired, tracked := 0, recs[epoch] != nil
		if epoch == gone {
			wantExpired = 1
		}
		if rep.Expired != wantExpired || tracked != (epoch != gone) {
			t.Errorf("epoch %d: %d expired, tracked %v", epoch, rep.Expired, tracked)
		}
	}
	if r := recs[gone+1]; r.Negotiable || r.AboveSince != int64(gone+1) || reps[gone+1].Negotiated != 0 {
		t.Errorf("returning flow %+v negotiated %d, want a fresh record", r, reps[gone+1].Negotiated)
	}
	if applied := c.Snapshot().Applied; len(applied) != 1 || applied[0].Src != 0 || applied[0].Dst != 0 {
		t.Errorf("installed paths after the time-out: %+v, want the flow's", applied)
	}
}

// TestSnapshotLifecycleRoundTrip: every lifecycle field of every record
// and the nonce position survive RestoreSnapshot then Snapshot, also
// values no epoch produces.
func TestSnapshotLifecycleRoundTrip(t *testing.T) {
	c := New(testSystem(t), 10)
	st := c.Snapshot()
	st.Epoch, st.Registry.Nonce = 9, 0xDEADBEEF
	// Signature order is (src, dst, dir).
	for i, k := range []struct {
		dir      nexit.Direction
		src, dst int
	}{{nexit.AtoB, 0, 0}, {nexit.BtoA, 0, 0}, {nexit.AtoB, 0, 1}, {nexit.BtoA, 1, 0}} {
		f := signature(k.dir, k.src, k.dst)
		f.Size, f.LastSeen, f.AboveSince = 0.25+float64(i), int64(8-i), int64(i)-1
		f.EverStable, f.Negotiable, f.AnnouncedAt = i%2 == 0, i > 1, int64(3*i)
		st.Registry.Flows = append(st.Registry.Flows, f)
	}
	if err := c.RestoreSnapshot(st); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot(); !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip changed the state:\n got  %+v\n want %+v", got, st)
	}
}

// TestSignatureRoundTrip: for every slot, the record keyed by its
// signature restores into that slot, and a key changed in any field
// names no flow of the pair.
func TestSignatureRoundTrip(t *testing.T) {
	c := New(testSystem(t), 10)
	for i := range c.slots {
		key := signature(c.slotKey(i))
		if got, ok := c.recordSlot(&key); !ok || got != i {
			t.Fatalf("slot %d: its signature %+v maps to slot %d (%v)", i, key, got, ok)
		}
		for name, change := range map[string]func(*snapshot.Flow){
			"src prefix":      func(f *snapshot.Flow) { f.SrcAddr += 1 << 16 },
			"src length":      func(f *snapshot.Flow) { f.SrcBits = 24 },
			"dst prefix":      func(f *snapshot.Flow) { f.DstAddr += 1 << 16 },
			"dst length":      func(f *snapshot.Flow) { f.DstBits = 24 },
			"ingress src":     func(f *snapshot.Flow) { f.Ingress += 1 << 16 },
			"ingress dir":     func(f *snapshot.Flow) { f.Ingress += 2 << 32 },
			"ingress top bit": func(f *snapshot.Flow) { f.Ingress |= 1 << 63 },
		} {
			f := key
			change(&f)
			if j, ok := c.recordSlot(&f); ok {
				t.Fatalf("slot %d: key with a changed %s maps to slot %d", i, name, j)
			}
		}
	}
}
