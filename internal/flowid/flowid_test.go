package flowid

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestPrefixString(t *testing.T) {
	p := Prefix{Addr: 0x0A010000, Bits: 16}
	if got := p.String(); got != "10.1.0.0/16" {
		t.Errorf("String = %q", got)
	}
}

// observe is ObserveFlow(Track(sig), size, tick).
func observe(r *Registry, sig Signature, size float64, tick int) bool {
	return r.ObserveFlow(r.Track(sig), size, tick)
}

// negotiable reports whether a handle is tracked and promoted.
func negotiable(f *Flow) bool { return f.negotiable && !f.dead }

// negotiableSigs lists the signatures Export reports negotiable.
func negotiableSigs(r *Registry) []Signature {
	var out []Signature
	flows, _ := r.Export()
	for _, f := range flows {
		if f.Negotiable {
			out = append(out, f.Sig)
		}
	}
	return out
}

func sig(i uint64) Signature {
	return Signature{
		Src:     Prefix{Addr: 0x0A000000, Bits: 16},
		Dst:     Prefix{Addr: 0x0B000000, Bits: 16},
		Ingress: i,
	}
}

func TestRegistryPromotion(t *testing.T) {
	r := NewRegistry(1.0, 3, 10)
	s := sig(1)
	// Below threshold: never promoted.
	for tick := 0; tick < 5; tick++ {
		if observe(r, s, 0.5, tick) {
			t.Fatal("promoted below threshold")
		}
	}
	// Above threshold but not yet stable.
	if observe(r, s, 2, 5) || observe(r, s, 2, 6) || observe(r, s, 2, 7) {
		t.Fatal("promoted before StableTicks elapsed")
	}
	if !observe(r, s, 2, 8) {
		t.Fatal("not promoted after staying above threshold")
	}
	if observe(r, s, 2, 9) {
		t.Fatal("promoted twice")
	}
	if neg := negotiableSigs(r); len(neg) != 1 || neg[0] != s {
		t.Fatalf("negotiable flows %v, want %v", neg, s)
	}
}

func TestRegistryThresholdReset(t *testing.T) {
	r := NewRegistry(1.0, 3, 10)
	s := sig(1)
	observe(r, s, 2, 0)
	observe(r, s, 2, 1)
	observe(r, s, 0.1, 2) // dips below: stability clock resets
	observe(r, s, 2, 3)
	observe(r, s, 2, 4)
	if observe(r, s, 2, 5) {
		t.Fatal("promoted despite reset clock")
	}
	if !observe(r, s, 2, 6) {
		t.Fatal("not promoted after full stable window")
	}
}

func TestRegistryExpiry(t *testing.T) {
	r := NewRegistry(1.0, 0, 5)
	a, b := sig(1), sig(2)
	observe(r, a, 2, 0)
	observe(r, b, 2, 0)
	observe(r, b, 2, 7)
	expired := r.Expire(8)
	if len(expired) != 1 || expired[0] != a {
		t.Fatalf("Expire = %+v", expired)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

// TestRegistryExportRestore: Restore(Export()) reconstructs the
// registry exactly — same negotiable set, same expiry behavior, same
// nonce position — and Export is deterministic despite map iteration.
func TestRegistryExportRestore(t *testing.T) {
	r := NewRegistry(1.0, 1, 2)
	sigA := Signature{Src: Prefix{Addr: 0x0A000000, Bits: 16}, Dst: Prefix{Addr: 0x0B000000, Bits: 16}, Ingress: 1}
	sigB := Signature{Src: Prefix{Addr: 0x0A010000, Bits: 16}, Dst: Prefix{Addr: 0x0B010000, Bits: 16}, Ingress: 2}
	for tick := 0; tick < 3; tick++ {
		observe(r, sigA, 2.0, tick)
	}
	observe(r, sigB, 0.5, 2) // below threshold, tracked but not negotiable

	flows, _ := r.Export()
	r.Restore(flows, 2) // a nonce position, as a snapshot carries one
	flows, nonce := r.Export()
	if len(flows) != 2 || nonce != 2 {
		t.Fatalf("exported %d flows nonce %d, want 2 flows nonce 2", len(flows), nonce)
	}
	if f2, n2 := r.Export(); !reflect.DeepEqual(flows, f2) || n2 != nonce {
		t.Fatal("Export is not deterministic")
	}

	fresh := NewRegistry(1.0, 1, 2)
	fresh.Restore(flows, nonce)
	if fresh.Len() != r.Len() {
		t.Fatalf("restored registry tracks %d flows, want %d", fresh.Len(), r.Len())
	}
	if got, want := negotiableSigs(fresh), negotiableSigs(r); !reflect.DeepEqual(got, want) || len(got) != 1 {
		t.Fatalf("negotiable set after restore = %v, want %v", got, want)
	}
	if _, n := fresh.Export(); n != nonce {
		t.Fatalf("nonce position %d after restore, want %d", n, nonce)
	}
	// Lifecycle continues identically: the idle flow expires at the
	// same tick in both registries.
	if got, want := fresh.Expire(5), r.Expire(5); !reflect.DeepEqual(got, want) {
		t.Fatalf("expiry after restore = %v, want %v", got, want)
	}
}

// TestFlowHandleLifetime: a handle reads and writes the entry observe
// would, Track returns the same handle while the entry lives, and
// Expire and Restore kill the handles they drop so a holder knows to
// Track again.
func TestFlowHandleLifetime(t *testing.T) {
	r := NewRegistry(1.0, 1, 2)
	sig := Signature{Src: Prefix{Addr: 0x0A000000, Bits: 16}, Dst: Prefix{Addr: 0x0B000000, Bits: 16}, Ingress: 7}
	var none *Flow
	if none.Live() {
		t.Error("a nil handle reports live")
	}
	f := r.Track(sig)
	if !f.Live() || negotiable(f) || r.Len() != 1 || r.Track(sig) != f {
		t.Fatalf("fresh handle: live %v negotiable %v, %d tracked", f.Live(), negotiable(f), r.Len())
	}
	r.ObserveFlow(f, 2.0, 0)
	if promoted := observe(r, sig, 2.0, 1); !promoted || !negotiable(f) {
		t.Error("observe and the handle disagree about the same entry")
	}

	if got := r.Expire(4); len(got) != 1 || got[0] != sig {
		t.Fatalf("Expire = %v", got)
	}
	if f.Live() || negotiable(f) {
		t.Error("expired handle still live or negotiable")
	}
	g := r.Track(sig)
	if g == f || !g.Live() || negotiable(g) {
		t.Error("Track after expiry did not start a fresh entry")
	}

	r.Restore(r.Export())
	if g.Live() {
		t.Error("handle survived Restore")
	}
	if h := r.Track(sig); h == g || !h.Live() || r.Len() != 1 {
		t.Error("Track after Restore did not find the restored entry")
	}
	defer func() {
		if recover() == nil {
			t.Error("ObserveFlow through a dead handle did not panic")
		}
	}()
	r.ObserveFlow(g, 1, 5)
}

// TestRegistryHandleParity drives one random interleaving of
// observations, expiries and restores into two registries — one by
// signature through observe, one through cached handles looked up again
// only when dead and tracked only after NegotiableAfter was asked, as
// the continuous controller holds them — and requires the same
// promotions, expiries and Export() at every step, and every
// NegotiableAfter answer to be what the observation then produced.
func TestRegistryHandleParity(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sigs := make([]Signature, 12)
		for i := range sigs {
			sigs[i] = Signature{
				Src:     Prefix{Addr: uint32(rng.Intn(3)) << 16, Bits: 16 + 8*rng.Intn(2)},
				Dst:     Prefix{Addr: 0x80000000 | uint32(rng.Intn(3))<<16, Bits: 16 + 8*rng.Intn(2)},
				Ingress: uint64(rng.Intn(4)),
			}
		}
		bySig, byHandle := NewRegistry(1.0, 2, 3), NewRegistry(1.0, 2, 3)
		handles := make([]*Flow, len(sigs))
		tick := 0
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				i, size := rng.Intn(len(sigs)), 2*rng.Float64()
				if !handles[i].Live() {
					handles[i] = byHandle.Lookup(sigs[i])
				}
				predicted := byHandle.NegotiableAfter(handles[i], size, tick)
				if handles[i] == nil {
					handles[i] = byHandle.Track(sigs[i])
				}
				if a, b := observe(bySig, sigs[i], size, tick), byHandle.ObserveFlow(handles[i], size, tick); a != b {
					t.Fatalf("seed %d step %d: promotion by signature %v, by handle %v", seed, step, a, b)
				}
				if got := negotiable(handles[i]); got != predicted {
					t.Fatalf("seed %d step %d: NegotiableAfter said %v, the observation left %v", seed, step, predicted, got)
				}
			case op < 8:
				tick += rng.Intn(3)
				if a, b := bySig.Expire(tick), byHandle.Expire(tick); !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d step %d: expired %v by signature, %v by handle", seed, step, a, b)
				}
			case op < 9:
				tick++
			default:
				// Restore each from the other's export: state crosses over
				// and every cached handle must notice it went stale.
				fa, na := bySig.Export()
				fb, nb := byHandle.Export()
				bySig.Restore(fb, nb)
				byHandle.Restore(fa, na)
			}
			fa, na := bySig.Export()
			fb, nb := byHandle.Export()
			if !reflect.DeepEqual(fa, fb) || na != nb {
				t.Fatalf("seed %d step %d: registries diverged:\n by signature %v\n by handle    %v", seed, step, fa, fb)
			}
			for i, h := range handles {
				if h.Live() && h != byHandle.Track(sigs[i]) {
					t.Fatalf("seed %d step %d: a live handle is not the tracked entry", seed, step)
				}
			}
		}
	}
}
