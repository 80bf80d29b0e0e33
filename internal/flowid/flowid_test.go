package flowid

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPrefixString(t *testing.T) {
	p := Prefix{Addr: 0x0A010000, Bits: 16}
	if got := p.String(); got != "10.1.0.0/16" {
		t.Errorf("String = %q", got)
	}
}

func TestPrefixValid(t *testing.T) {
	valid := []Prefix{
		{0, 0}, {0x0A000000, 8}, {0xC0A80100, 24}, {0xFFFFFFFF, 32},
	}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	invalid := []Prefix{
		{0x0A000001, 8},  // host bits set
		{0x0A000000, 33}, // bad length
		{0x0A000000, -1},
	}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := Prefix{Addr: 0x0A010000, Bits: 16}
	if !p.Contains(0x0A0100FF) || !p.Contains(0x0A01FFFF) {
		t.Error("Contains misses in-prefix addresses")
	}
	if p.Contains(0x0A020000) {
		t.Error("Contains accepts out-of-prefix address")
	}
	// /0 contains everything.
	if !(Prefix{0, 0}).Contains(0xDEADBEEF) {
		t.Error("/0 should contain everything")
	}
}

func TestContainsPrefix(t *testing.T) {
	p16 := Prefix{Addr: 0x0A010000, Bits: 16}
	p24 := Prefix{Addr: 0x0A010100, Bits: 24}
	if !p16.ContainsPrefix(p24) {
		t.Error("/16 should contain its /24")
	}
	if p24.ContainsPrefix(p16) {
		t.Error("/24 must not contain its /16")
	}
	if !p16.ContainsPrefix(p16) {
		t.Error("prefix should contain itself")
	}
}

func TestPrefixContainsProperty(t *testing.T) {
	f := func(addr uint32, bits uint8) bool {
		b := int(bits % 33)
		p := Prefix{Addr: addr, Bits: b}
		p.Addr &= p.mask() // canonicalize
		if !p.Valid() {
			return false
		}
		// The network address itself is always contained.
		return p.Contains(p.Addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
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
	s := sig(r.NewNonce())
	// Below threshold: never promoted.
	for tick := 0; tick < 5; tick++ {
		if r.Observe(s, 0.5, tick) {
			t.Fatal("promoted below threshold")
		}
	}
	// Above threshold but not yet stable.
	if r.Observe(s, 2, 5) || r.Observe(s, 2, 6) || r.Observe(s, 2, 7) {
		t.Fatal("promoted before StableTicks elapsed")
	}
	if !r.Observe(s, 2, 8) {
		t.Fatal("not promoted after staying above threshold")
	}
	if r.Observe(s, 2, 9) {
		t.Fatal("promoted twice")
	}
	neg := r.Negotiable()
	if len(neg) != 1 || neg[0].Sig != s {
		t.Fatalf("Negotiable = %+v", neg)
	}
}

func TestRegistryThresholdReset(t *testing.T) {
	r := NewRegistry(1.0, 3, 10)
	s := sig(r.NewNonce())
	r.Observe(s, 2, 0)
	r.Observe(s, 2, 1)
	r.Observe(s, 0.1, 2) // dips below: stability clock resets
	r.Observe(s, 2, 3)
	r.Observe(s, 2, 4)
	if r.Observe(s, 2, 5) {
		t.Fatal("promoted despite reset clock")
	}
	if !r.Observe(s, 2, 6) {
		t.Fatal("not promoted after full stable window")
	}
}

func TestRegistryExpiry(t *testing.T) {
	r := NewRegistry(1.0, 0, 5)
	a, b := sig(r.NewNonce()), sig(r.NewNonce())
	r.Observe(a, 2, 0)
	r.Observe(b, 2, 0)
	r.Observe(b, 2, 7)
	expired := r.Expire(8)
	if len(expired) != 1 || expired[0] != a {
		t.Fatalf("Expire = %+v", expired)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestNoncesDistinct(t *testing.T) {
	r := NewRegistry(1, 0, 1)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		n := r.NewNonce()
		if seen[n] {
			t.Fatal("nonce repeated")
		}
		seen[n] = true
	}
}

func TestNegotiableSorted(t *testing.T) {
	r := NewRegistry(1, 0, 100)
	sizes := []float64{3, 9, 1.5, 7}
	for i, s := range sizes {
		r.Observe(sig(uint64(i+1)), s, 0)
	}
	neg := r.Negotiable()
	if len(neg) != 4 {
		t.Fatalf("got %d negotiable", len(neg))
	}
	for i := 1; i < len(neg); i++ {
		if neg[i].Size > neg[i-1].Size {
			t.Fatal("not sorted by size desc")
		}
	}
}

func TestTopFraction(t *testing.T) {
	flows := []FlowInfo{
		{Sig: sig(1), Size: 50},
		{Sig: sig(2), Size: 30},
		{Sig: sig(3), Size: 15},
		{Sig: sig(4), Size: 5},
	}
	top := TopFraction(flows, 0.8)
	if len(top) != 2 { // 50+30 = 80% of 100
		t.Fatalf("TopFraction(0.8) = %d flows, want 2", len(top))
	}
	if top[0].Size != 50 || top[1].Size != 30 {
		t.Errorf("wrong flows selected: %+v", top)
	}
	if got := TopFraction(flows, 1.0); len(got) != 4 {
		t.Errorf("TopFraction(1.0) = %d flows", len(got))
	}
	if got := TopFraction(nil, 0.5); got != nil {
		t.Errorf("TopFraction(empty) = %v", got)
	}
	// Zero-size flows: no selection possible.
	if got := TopFraction([]FlowInfo{{Size: 0}}, 0.5); got != nil {
		t.Errorf("TopFraction(zero sizes) = %v", got)
	}
}

func TestTopFractionProperty(t *testing.T) {
	f := func(raw []float64, fracRaw float64) bool {
		flows := make([]FlowInfo, 0, len(raw))
		var total float64
		for i, s := range raw {
			if s < 0 || s != s || s > 1e12 {
				s = 1
			}
			flows = append(flows, FlowInfo{Sig: sig(uint64(i)), Size: s})
			total += s
		}
		frac := math.Abs(math.Mod(fracRaw, 1))
		if math.IsNaN(frac) {
			frac = 0.5
		}
		top := TopFraction(flows, frac)
		var acc float64
		for _, f := range top {
			acc += f.Size
		}
		// Selected set covers at least the requested fraction.
		return total == 0 || acc >= frac*total-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRegistryExportRestore: Restore(Export()) reconstructs the
// registry exactly — same negotiable set, same expiry behavior, same
// nonce position — and Export is deterministic despite map iteration.
func TestRegistryExportRestore(t *testing.T) {
	r := NewRegistry(1.0, 1, 2)
	sigA := Signature{Src: Prefix{Addr: 0x0A000000, Bits: 16}, Dst: Prefix{Addr: 0x0B000000, Bits: 16}, Ingress: r.NewNonce()}
	sigB := Signature{Src: Prefix{Addr: 0x0A010000, Bits: 16}, Dst: Prefix{Addr: 0x0B010000, Bits: 16}, Ingress: r.NewNonce()}
	for tick := 0; tick < 3; tick++ {
		r.Observe(sigA, 2.0, tick)
	}
	r.Observe(sigB, 0.5, 2) // below threshold, tracked but not negotiable

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
	if got, want := fresh.Negotiable(), r.Negotiable(); !reflect.DeepEqual(got, want) {
		t.Fatalf("negotiable set after restore = %v, want %v", got, want)
	}
	if fresh.NewNonce() != r.NewNonce() {
		t.Fatal("nonce position diverged after restore")
	}
	// Lifecycle continues identically: the idle flow expires at the
	// same tick in both registries.
	if got, want := fresh.Expire(5), r.Expire(5); !reflect.DeepEqual(got, want) {
		t.Fatalf("expiry after restore = %v, want %v", got, want)
	}
}

// TestFlowHandleLifetime: a handle reads and writes the entry Observe
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
	if !f.Live() || f.Negotiable() || r.Len() != 1 || r.Track(sig) != f {
		t.Fatalf("fresh handle: live %v negotiable %v, %d tracked", f.Live(), f.Negotiable(), r.Len())
	}
	r.ObserveFlow(f, 2.0, 0)
	if promoted := r.Observe(sig, 2.0, 1); !promoted || !f.Negotiable() {
		t.Error("Observe and the handle disagree about the same entry")
	}

	if got := r.Expire(4); len(got) != 1 || got[0] != sig {
		t.Fatalf("Expire = %v", got)
	}
	if f.Live() || f.Negotiable() {
		t.Error("expired handle still live or negotiable")
	}
	g := r.Track(sig)
	if g == f || !g.Live() || g.Negotiable() {
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
// signature through Observe, one through cached handles looked up again
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
				if a, b := bySig.Observe(sigs[i], size, tick), byHandle.ObserveFlow(handles[i], size, tick); a != b {
					t.Fatalf("seed %d step %d: promotion by signature %v, by handle %v", seed, step, a, b)
				}
				if got := handles[i].Negotiable(); got != predicted {
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
