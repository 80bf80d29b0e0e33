// Package flowid implements the flow-identification machinery of the
// paper's §6 ("Identifying flows for negotiation"): ISPs partition the
// traffic they exchange into flows identified by routing prefixes, the
// upstream signals new flows with an opaque ingress identifier and an
// estimated size, inactive flows time out, and — for scalability — only
// flows that stay above a size threshold long enough are negotiated.
//
// The types here are a control-plane model: prefixes are IPv4 CIDR
// blocks assigned per PoP (as an ISP would announce them), and the
// registry tracks flow lifecycle the way a NetFlow-fed negotiation agent
// would.
package flowid

import (
	"cmp"
	"fmt"
	"slices"
)

// Prefix is an IPv4 CIDR block.
type Prefix struct {
	Addr uint32 // network address, host bits zero
	Bits int    // prefix length
}

// String renders the prefix in dotted CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%d.%d.%d.%d/%d",
		byte(p.Addr>>24), byte(p.Addr>>16), byte(p.Addr>>8), byte(p.Addr), p.Bits)
}

// Signature uniquely identifies a negotiable flow (paper §6): the most
// specific source and destination prefixes of its packets plus an opaque
// identifier for its ingress into the upstream. The upstream "chooses
// different identifiers for different flows that enter at the same
// place" to prevent information leakage, so Ingress is a per-flow nonce,
// not a PoP number.
type Signature struct {
	Src     Prefix
	Dst     Prefix
	Ingress uint64
}

// String renders the signature.
func (s Signature) String() string {
	return fmt.Sprintf("%v->%v@%x", s.Src, s.Dst, s.Ingress)
}

// Registry tracks active flows the way the upstream's negotiation agent
// would from NetFlow-style measurements. Time is modeled as integer
// ticks supplied by the caller.
type Registry struct {
	// SizeThreshold is the minimum observed size for a flow to become
	// negotiable ("to improve scalability ISPs can decide to negotiate
	// over only the set of long-lived and high-bandwidth flows").
	SizeThreshold float64
	// StableTicks is how long a flow must stay above the threshold
	// before it is announced ("the upstream will trigger a new flow only
	// if its size stays above a threshold for a certain period").
	StableTicks int
	// IdleTimeout is the number of ticks without traffic after which a
	// flow is expired.
	IdleTimeout int

	flows map[Signature]*Flow
	// nextNonce is the ingress-nonce position snapshots carry: Export
	// reports it and Restore sets it.
	nextNonce uint64
}

// Flow is the registry's handle on one tracked flow: Track finds or
// creates it once, then ObserveFlow and NegotiableAfter go through it
// without hashing the signature again. A handle is good while Live
// holds; Expire and Restore mark the entries they drop dead, and a
// holder Tracks again.
type Flow struct {
	size        float64
	lastSeen    int
	aboveSince  int
	everStable  bool
	negotiable  bool
	dead        bool
	announcedAt int
}

// Live reports whether the registry still tracks this entry; a nil
// handle does not, so a holder's zero value means "Track first".
func (f *Flow) Live() bool { return f != nil && !f.dead }

// NewRegistry returns a registry with the given policy knobs.
func NewRegistry(sizeThreshold float64, stableTicks, idleTimeout int) *Registry {
	return &Registry{
		SizeThreshold: sizeThreshold,
		StableTicks:   stableTicks,
		IdleTimeout:   idleTimeout,
		flows:         make(map[Signature]*Flow),
	}
}

// Track returns the live handle for a signature, creating the entry on
// first sight.
func (r *Registry) Track(sig Signature) *Flow {
	f, ok := r.flows[sig]
	if !ok {
		f = &Flow{aboveSince: -1}
		r.flows[sig] = f
	}
	return f
}

// Lookup returns the live handle for a signature, or nil when the
// registry does not track it. Unlike Track it never creates an entry.
func (r *Registry) Lookup(sig Signature) *Flow { return r.flows[sig] }

// ObserveFlow records traffic for a tracked flow at the given tick and
// returns true when the observation promotes the flow to negotiable
// (the moment the upstream would signal "the arrival of a new flow" to
// the downstream). f must be a live handle from this registry's Track:
// a dead one is a caller bug and panics rather than lose the observation.
func (r *Registry) ObserveFlow(f *Flow, size float64, tick int) bool {
	if f.dead {
		panic("flowid: ObserveFlow through a dead handle; Track the signature again")
	}
	aboveSince, negotiable := r.stability(f, size, tick)
	promoted := negotiable && !f.negotiable
	f.size, f.lastSeen, f.aboveSince = size, tick, aboveSince
	if promoted {
		f.negotiable, f.everStable, f.announcedAt = true, true, tick
	}
	return promoted
}

// NegotiableAfter reports whether ObserveFlow(f, size, tick) would leave
// the flow negotiable, without recording the observation. A handle that
// is not live stands for a flow the registry first sees at tick.
func (r *Registry) NegotiableAfter(f *Flow, size float64, tick int) bool {
	if !f.Live() {
		f = &Flow{aboveSince: -1}
	}
	_, negotiable := r.stability(f, size, tick)
	return negotiable
}

// stability is the promotion rule: the tick since which the flow has
// stayed above the size threshold (-1 when it is below), and whether it
// is negotiable, once size is observed at tick.
func (r *Registry) stability(f *Flow, size float64, tick int) (aboveSince int, negotiable bool) {
	if size < r.SizeThreshold {
		return -1, f.negotiable
	}
	aboveSince = f.aboveSince
	if aboveSince < 0 {
		aboveSince = tick
	}
	return aboveSince, f.negotiable || tick-aboveSince >= r.StableTicks
}

// Expire removes flows idle for longer than IdleTimeout and returns
// their signatures in canonical order ("flows that are inactive for a
// certain period are timed out"). Their handles go dead.
func (r *Registry) Expire(tick int) []Signature {
	var expired []Signature
	for sig, f := range r.flows {
		if tick-f.lastSeen > r.IdleTimeout {
			expired = append(expired, sig)
			f.dead = true
			delete(r.flows, sig)
		}
	}
	slices.SortFunc(expired, sigCompare)
	return expired
}

// FlowRecord is the complete lifecycle state of one tracked flow — the
// registry's per-flow mutable state, exported for snapshots. Together
// with the nonce counter (see Export) it is everything a registry
// accumulates, so Restore(Export()) reconstructs the registry exactly.
type FlowRecord struct {
	Sig         Signature
	Size        float64
	LastSeen    int
	AboveSince  int
	EverStable  bool
	Negotiable  bool
	AnnouncedAt int
}

// sigCompare orders signatures canonically (src, dst, ingress).
func sigCompare(a, b Signature) int {
	return cmp.Or(
		cmp.Compare(a.Src.Addr, b.Src.Addr),
		cmp.Compare(a.Src.Bits, b.Src.Bits),
		cmp.Compare(a.Dst.Addr, b.Dst.Addr),
		cmp.Compare(a.Dst.Bits, b.Dst.Bits),
		cmp.Compare(a.Ingress, b.Ingress),
	)
}

// Export returns every tracked flow in canonical signature order plus
// the nonce counter — the registry's complete mutable state (the policy
// knobs are exported fields already). Deterministic: the same registry
// always exports the same slice, whatever map iteration order did.
func (r *Registry) Export() ([]FlowRecord, uint64) {
	out := make([]FlowRecord, 0, len(r.flows))
	for sig, f := range r.flows {
		out = append(out, FlowRecord{
			Sig:         sig,
			Size:        f.size,
			LastSeen:    f.lastSeen,
			AboveSince:  f.aboveSince,
			EverStable:  f.everStable,
			Negotiable:  f.negotiable,
			AnnouncedAt: f.announcedAt,
		})
	}
	slices.SortFunc(out, func(a, b FlowRecord) int { return sigCompare(a.Sig, b.Sig) })
	return out, r.nextNonce
}

// Restore replaces the registry's tracked flows and nonce counter with
// the given exported state: after Restore(Export()) the registry is
// observationally identical to the original (snapshot recovery's
// requirement). Duplicate signatures keep the last record. Every handle
// handed out before the call goes dead.
func (r *Registry) Restore(flows []FlowRecord, nonce uint64) {
	for _, f := range r.flows {
		f.dead = true
	}
	r.flows = make(map[Signature]*Flow, len(flows))
	for _, f := range flows {
		r.flows[f.Sig] = &Flow{
			size:        f.Size,
			lastSeen:    f.LastSeen,
			aboveSince:  f.AboveSince,
			everStable:  f.EverStable,
			negotiable:  f.Negotiable,
			announcedAt: f.AnnouncedAt,
		}
	}
	r.nextNonce = nonce
}

// Len returns the number of tracked flows.
func (r *Registry) Len() int { return len(r.flows) }
