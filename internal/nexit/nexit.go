// Package nexit implements the paper's primary contribution: the Nexit
// negotiation framework (§4), in which two neighboring ISPs disclose only
// coarse, opaque preference classes in [-P, P] and jointly agree on an
// interconnection for every traffic flow they exchange.
//
// The package separates three concerns:
//
//   - Evaluators (evaluator.go) map an ISP's private optimization metric
//     (distance, bandwidth headroom, Fortz–Thorup cost, ...) to opaque
//     preference classes, relative to the default alternative (class 0).
//   - The round rules (policies.go) are fixed: alternate turns, max-sum
//     proposals, accept unless the counterpart vetoes, early termination.
//     The agreed parameters are the class bound P, preference
//     reassignment and the deficit allowances (Config).
//   - The engine (this file) runs the rounds and produces the negotiated
//     assignment plus a full transcript.
//
// The engine is used directly by simulations and, via internal/nexitwire,
// by negotiation agents speaking a TCP protocol (paper §6, Figure 12).
package nexit

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/traffic"
)

// Direction orients a flow between the two ISPs of a pair.
type Direction int

// Flow directions. The pair's ISP A is upstream for AtoB flows and
// downstream for BtoA flows.
const (
	AtoB Direction = iota
	BtoA
)

// String names the direction.
func (d Direction) String() string {
	if d == AtoB {
		return "a->b"
	}
	return "b->a"
}

// Side identifies one of the two negotiating ISPs.
type Side int

// The two sides of a negotiation.
const (
	SideA Side = iota
	SideB
)

// String names the side.
func (s Side) String() string {
	if s == SideA {
		return "A"
	}
	return "B"
}

// Other returns the opposite side.
func (s Side) Other() Side {
	if s == SideA {
		return SideB
	}
	return SideA
}

// Item is one negotiable flow. ID is a dense index in the negotiation
// (distinct from Flow.ID, which indexes the flow within its directional
// workload). Negotiating over flows of both directions at once is
// deliberate: the paper finds that mutual wins require "keeping all the
// traffic on the negotiating table" (§3).
type Item struct {
	ID   int
	Flow traffic.Flow
	Dir  Direction
}

// Items builds the negotiation set from the two directional workloads.
// Either may be nil.
func Items(ab, ba []traffic.Flow) []Item {
	items := make([]Item, 0, len(ab)+len(ba))
	for _, f := range ab {
		items = append(items, Item{ID: len(items), Flow: f, Dir: AtoB})
	}
	for _, f := range ba {
		items = append(items, Item{ID: len(items), Flow: f, Dir: BtoA})
	}
	return items
}

// Config collects the contractually agreed parameters of a negotiation.
type Config struct {
	PrefBound int // P: preferences live in [-P, P]; the paper uses 10

	// ReassignFraction, when positive, triggers preference reassignment
	// after each such fraction of the total traffic size has been
	// negotiated (the paper reassigns every 5% for bandwidth metrics and
	// never for distance metrics).
	ReassignFraction float64

	// BatchAcceptHook, when non-nil, is the counterpart, asked about
	// whole runs of proposals at once; without it every proposal is
	// accepted. The engine plans the maximal sequence of proposals it
	// would make if every one were accepted (the sequence is
	// deterministic in the current preference state, so it can be
	// computed without committing anything), and the hook returns how
	// many leading proposals the counterpart accepted.
	// A return short of the batch means proposal [n] was vetoed and the
	// tail was never considered; the engine records the veto and
	// replans, exactly as if the proposals had been asked one by one.
	// The wire protocol uses this to collapse per-item accept/commit
	// round trips into one frame exchange per batch; the negotiation
	// outcome (assignment, gains, rounds, transcript, stop reason) is
	// identical to the unbatched run by construction.
	BatchAcceptHook func(batch []Proposal) int

	// ExtraDeficitA and ExtraDeficitB widen the respective side's
	// cumulative-deficit allowance. They implement the credit mechanism
	// the paper sketches in §3 ("compromises can be decoupled in time
	// using credits"): a side that banked a surplus in earlier sessions
	// extends its deficit bound in later ones to repay. See
	// internal/credits.
	ExtraDeficitA, ExtraDeficitB int
}

// DefaultDistanceConfig returns the configuration the paper uses for the
// distance experiments (§5.1): P=10 and no reassignment.
func DefaultDistanceConfig() Config {
	return Config{PrefBound: 10}
}

// DefaultBandwidthConfig returns the §5.2 configuration: as distance,
// plus preference reassignment after each 5% of traffic.
func DefaultBandwidthConfig() Config {
	c := DefaultDistanceConfig()
	c.ReassignFraction = 0.05
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PrefBound <= 0 {
		return fmt.Errorf("nexit: PrefBound must be positive")
	}
	if c.ReassignFraction < 0 || c.ReassignFraction > 1 {
		return fmt.Errorf("nexit: ReassignFraction must be in [0,1]")
	}
	return nil
}

// Proposal records one round of the negotiation transcript.
type Proposal struct {
	Round    int
	Proposer Side
	ItemID   int
	Alt      int
	PrefA    int // A's disclosed preference for the chosen alternative
	PrefB    int
	Accepted bool
}

// Result is the outcome of a negotiation.
type Result struct {
	// Assign maps Item.ID to the agreed interconnection. Items left on
	// the table when negotiation stopped keep their default.
	Assign []int
	// GainA and GainB are cumulative disclosed preference gains.
	GainA, GainB int
	// Rounds is the number of proposal rounds executed.
	Rounds int
	// Negotiated counts items agreed through proposals (as opposed to
	// falling back to the default at termination).
	Negotiated int
	// Reverted counts trades undone by the terminal unwind (see below):
	// when negotiation ends with one side in its bounded deficit and no
	// way to recover, its most harmful trades are rolled back to the
	// default until neither side is below zero. With floor-rounded
	// classes this guarantees no real loss for either ISP.
	Reverted int
	// Transcript lists every proposal put to the counterpart, accepted or
	// vetoed, in round order. It is always recorded (the terminal unwind
	// reads the accepted classes back from it) and is nil only when no
	// proposal was made.
	Transcript []Proposal
	// Stopped describes why negotiation ended.
	Stopped StopReason
}

// StopReason says why the negotiation terminated.
type StopReason int

// Termination causes.
const (
	StopAllNegotiated  StopReason = iota // every item was agreed
	StopNoJointGain                      // best remaining combined gain <= 0
	StopSideCannotGain                   // one side has no positive preference left
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case StopAllNegotiated:
		return "all-negotiated"
	case StopNoJointGain:
		return "no-joint-gain"
	case StopSideCannotGain:
		return "side-cannot-gain"
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// Evaluator is one ISP's private view: it maps flow alternatives to
// opaque preference classes and tracks internal state (such as link
// loads) as flows are committed.
type Evaluator interface {
	// Prefs returns, for each item, the preference class of every
	// alternative, relative to the item's default alternative (which
	// must map to class 0). Preferences must lie in [-P, P].
	//
	// Ownership contract: the returned rows may live on evaluator-owned
	// scratch buffers and are only guaranteed valid until the next Prefs
	// (or RawDeltas) call on the same evaluator. Callers that retain
	// preferences across calls must copy them — the engine copies every
	// row via clampPrefsInto before the counterpart evaluator runs.
	Prefs(items []Item, defaults []int) [][]int
	// Commit informs the evaluator that an item was agreed to use alt.
	Commit(item Item, alt int)
}

// Reverter is implemented by stateful evaluators that can undo a Commit
// when the terminal unwind moves an item back to its default
// alternative.
type Reverter interface {
	// Revert undoes a prior Commit of alt and re-commits the item to
	// def.
	Revert(item Item, alt, def int)
}

// negotiation is the engine's mutable state. Negotiate reuses states
// through a free list (see states), so every field is reset per call.
type negotiation struct {
	cfg          Config
	items        []Item
	defaults     []int
	evalA, evalB Evaluator
	numAlts      int

	// prefsA and prefsB hold both sides' clamped classes and vetoed the
	// (item, alt) pairs rejected by veto, all flat: index id*numAlts+k is
	// alternative k of item id. Classes are int32, which halves the
	// largest arrays a free-listed state retains; a bound past int32
	// could not size the index's cells anyway.
	prefsA, prefsB []int32
	vetoed         []bool
	// remaining marks the items on the table: neither committed nor taken
	// by the plan in flight.
	remaining    []bool
	numRemaining int
	idx          proposalIndex

	tally                 // the state as of the last applied round
	batch      []Proposal // the plan in flight
	transcript []Proposal // every round so far; the Result gets a copy at its final size
	result     *Result
	totalSize  float64
	remScratch []Item // refreshPrefs' working sets
	defScratch []int
}

// tally is the state one round reads and the next inherits. plan advances
// a copy of it, apply the negotiation's own.
type tally struct {
	gainA, gainB  int
	rounds        int
	sinceReassign float64 // traffic agreed since preferences were last collected
	turn          Side    // who proposes next: the ISPs alternate, A first
}

// advance records proposal p, which settled size units of traffic if it
// was accepted, into the tally.
func (t *tally) advance(p Proposal, size float64) {
	t.rounds++
	t.turn = p.Proposer.Other()
	if p.Accepted {
		t.gainA += p.PrefA
		t.gainB += p.PrefB
		t.sinceReassign += size
	}
}

// Negotiate runs the protocol and returns the result. numAlts is the
// number of interconnections (alternatives per item); defaults[i] is the
// default alternative of items[i] (what the flow uses absent agreement).
func Negotiate(cfg Config, evalA, evalB Evaluator, items []Item, defaults []int, numAlts int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(items) != len(defaults) {
		return nil, fmt.Errorf("nexit: %d items but %d defaults", len(items), len(defaults))
	}
	if numAlts <= 0 {
		return nil, fmt.Errorf("nexit: numAlts must be positive")
	}
	for i, it := range items {
		if it.ID != i {
			return nil, fmt.Errorf("nexit: item %d has ID %d; IDs must be dense", i, it.ID)
		}
		if defaults[i] < 0 || defaults[i] >= numAlts {
			return nil, fmt.Errorf("nexit: item %d default %d out of range", i, defaults[i])
		}
	}

	var n *negotiation
	select {
	case n = <-states:
	default:
		n = new(negotiation)
	}
	n.reset(cfg, evalA, evalB, items, defaults, numAlts)
	n.refreshPrefs()
	n.roundLoop()
	n.unwindDeficits()
	res := n.result
	res.GainA, res.GainB, res.Rounds = n.gainA, n.gainB, n.rounds
	if len(n.transcript) > 0 {
		res.Transcript = slices.Clone(n.transcript)
	}
	// Drop every reference the state holds into the caller's data, then
	// keep the state if the free list has room.
	n.cfg, n.items, n.defaults, n.evalA, n.evalB, n.result = Config{}, nil, nil, nil, nil, nil
	select {
	case states <- n:
	default:
	}
	return res, nil
}

// states is the engine's free list of working states, Effective Go's
// "leaky buffer": Negotiate takes a state if one is free and allocates
// otherwise, and puts it back if there is room and drops it if not.
// Capping it at GOMAXPROCS retains about what can run at once: every
// retained buffer is live heap, which the GC's goal doubles.
var states = make(chan *negotiation, runtime.GOMAXPROCS(0))

// reset readies n, fresh or from the free list, for one negotiation.
// Buffers are reused when large enough; each is cleared here or fully
// rewritten before it is read (prefsA and prefsB by the first
// refreshPrefs, the index by build).
func (n *negotiation) reset(cfg Config, evalA, evalB Evaluator, items []Item, defaults []int, numAlts int) {
	size := len(items) * numAlts
	n.cfg, n.items, n.defaults, n.evalA, n.evalB, n.numAlts = cfg, items, defaults, evalA, evalB, numAlts
	n.prefsA, n.prefsB = resize(n.prefsA, size), resize(n.prefsB, size)
	n.vetoed = resize(n.vetoed, size)
	clear(n.vetoed)
	n.remaining, n.numRemaining = resize(n.remaining, len(items)), len(items)
	n.tally, n.totalSize = tally{}, 0
	for i, it := range items {
		n.remaining[i] = true
		n.totalSize += it.Flow.Size
	}
	n.transcript = slices.Grow(n.transcript[:0], len(items))
	n.result = &Result{Assign: append([]int(nil), defaults...)}
	n.newIndex()
}

// resize returns s at length n, on its own backing array when that is
// large enough. The contents are whatever the array last held.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// roundLoop runs the rounds: plan the proposals the protocol makes next,
// ask the counterpart about them, apply its answer. Asking one proposal at a
// time is the batch-of-one case of the same loop, not a second path: a
// plan is a pure function of the current preferences, vetoes and tally,
// so the accepted prefix of a longer plan is exactly the rounds that
// asking one by one would have produced. Plans stay at one proposal
// without a BatchAcceptHook.
func (n *negotiation) roundLoop() {
	maxBatch := 1
	if n.cfg.BatchAcceptHook != nil {
		maxBatch = max(1, len(n.items))
	}
	n.batch = slices.Grow(n.batch[:0], maxBatch)
	for {
		reason, stopped := n.plan(maxBatch)
		accepted := n.ask()
		n.apply(accepted)
		if stopped && accepted == len(n.batch) {
			// The stop condition fired on the round after the plan, and the
			// state after applying all of it is the state plan saw.
			n.result.Stopped = reason
			return
		}
	}
}

// plan fills n.batch with the rounds that follow if every proposal is
// accepted, taking each proposed item off the table, until a stop
// condition fires (returned with stopped = true), a reassignment falls
// due (preferences must be recollected before another round can be
// planned) or maxBatch proposals are planned. Only the index and a copy
// of the tally move; evaluators, assignments and the transcript are
// apply's.
func (n *negotiation) plan(maxBatch int) (reason StopReason, stopped bool) {
	n.batch = n.batch[:0]
	t := n.tally
	for {
		if n.numRemaining == 0 {
			return StopAllNegotiated, true
		}
		proposer := t.turn
		id, alt, ok := n.propose(&t, proposer)
		if !ok {
			// The proposer has nothing it can afford to propose; give the
			// other side one chance before concluding.
			proposer = proposer.Other()
			if id, alt, ok = n.propose(&t, proposer); !ok {
				return StopNoJointGain, true
			}
		}
		if reason, stop := n.shouldStop(&t, id, alt); stop {
			return reason, true
		}
		e := id*n.numAlts + alt
		p := Proposal{
			Round: t.rounds, Proposer: proposer, ItemID: id, Alt: alt,
			PrefA: int(n.prefsA[e]), PrefB: int(n.prefsB[e]), Accepted: true,
		}
		n.batch = append(n.batch, p)
		n.take(id)
		t.advance(p, n.items[id].Flow.Size)
		if n.reassignDue(&t) || len(n.batch) == maxBatch {
			return 0, false
		}
	}
}

// ask puts the plan to the counterpart and returns how many leading
// proposals it accepted; one short of the plan means the next was vetoed.
// Without a hook every proposal is accepted.
func (n *negotiation) ask() int {
	if len(n.batch) == 0 {
		return 0
	}
	if n.cfg.BatchAcceptHook != nil {
		return min(max(n.cfg.BatchAcceptHook(n.batch), 0), len(n.batch))
	}
	return len(n.batch)
}

// apply finalizes the accepted prefix of the plan, records the veto of
// the proposal after it, if any, and puts the rest back on the table.
func (n *negotiation) apply(accepted int) {
	for _, p := range n.batch[:accepted] {
		n.transcript = append(n.transcript, p)
		n.result.Assign[p.ItemID] = p.Alt
		n.result.Negotiated++
		it := n.items[p.ItemID]
		n.evalA.Commit(it, p.Alt)
		n.evalB.Commit(it, p.Alt)
		n.advance(p, it.Flow.Size)
		if n.reassignDue(&n.tally) {
			n.sinceReassign = 0
			n.refreshPrefs()
		}
	}
	if accepted < len(n.batch) {
		// Veto: the vetoed item and the unasked tail return to the table,
		// this (item, alt) pair is excluded, and the rebuild re-evaluates.
		for _, p := range n.batch[accepted:] {
			n.remaining[p.ItemID] = true
			n.numRemaining++
		}
		p := n.batch[accepted]
		p.Accepted = false
		n.transcript = append(n.transcript, p)
		n.advance(p, 0)
		n.vetoed[p.ItemID*n.numAlts+p.Alt] = true
		n.build()
	}
}

// reassignDue reports whether enough traffic has been agreed since the
// last preference collection to trigger the next.
func (n *negotiation) reassignDue(t *tally) bool {
	return n.cfg.ReassignFraction > 0 && n.totalSize > 0 &&
		t.sinceReassign >= n.cfg.ReassignFraction*n.totalSize
}

// refreshPrefs (re)collects preference lists from both evaluators for
// the items on the table and rebuilds the proposal index.
func (n *negotiation) refreshPrefs() {
	rem, defaults := n.items, n.defaults
	if n.numRemaining < len(n.items) {
		// Refreshes only ever see fewer items on the table, so the first
		// sizes the scratch for all of them.
		if cap(n.remScratch) < n.numRemaining {
			n.remScratch, n.defScratch = make([]Item, 0, n.numRemaining), make([]int, 0, n.numRemaining)
		}
		rem, defaults = n.remScratch[:0], n.defScratch[:0]
		for _, it := range n.items {
			if n.remaining[it.ID] {
				rem = append(rem, it)
				defaults = append(defaults, n.defaults[it.ID])
			}
		}
	}
	// Clamp each side's rows into negotiation-owned storage before the
	// counterpart evaluator runs: evaluators hand out views of reusable
	// scratch (see the Evaluator ownership contract), so the returned
	// slices are never adopted directly and never read after another
	// Prefs call that might share their backing.
	pa := n.evalA.Prefs(rem, defaults)
	for i, it := range rem {
		clampPrefsInto(n.prefsA[it.ID*n.numAlts:][:n.numAlts], pa[i], n.cfg.PrefBound)
	}
	pb := n.evalB.Prefs(rem, defaults)
	for i, it := range rem {
		clampPrefsInto(n.prefsB[it.ID*n.numAlts:][:n.numAlts], pb[i], n.cfg.PrefBound)
	}
	n.build()
}

// clampPrefsInto copies one alternative-indexed row of classes into dst,
// clamped to [-bound, bound].
func clampPrefsInto(dst []int32, p []int, bound int) {
	for k := range dst {
		dst[k] = int32(min(max(p[k], -bound), bound))
	}
}

// shouldStop applies early termination to the concrete next proposal
// (id, alt): negotiation stops when the proposal's joint class is
// negative, or when one of the ISPs cannot gain more.
func (n *negotiation) shouldStop(t *tally, id, alt int) (StopReason, bool) {
	p := n.cfg.PrefBound
	pA, pB := int(n.prefsA[id*n.numAlts+alt]), int(n.prefsB[id*n.numAlts+alt])
	// The proposal is the best remaining combined gain; if even it is
	// strictly negative, no joint gain remains. (Neutral, sum-zero
	// proposals are allowed through: the default alternative always sums
	// to zero, and with reassignment a neutral commitment can unlock
	// later gains — the paper's Figure 3 walkthrough starts with exactly
	// such a proposal.) So no accepted proposal lowers the joint gain.
	if pA+pB < 0 {
		return StopNoJointGain, true
	}
	// "Negotiation stops when one of the ISPs cannot gain more": a side
	// that has no positive preference anywhere left on the table stops
	// rather than absorb a strictly negative proposal. Neutral proposals
	// (class 0) are let through — the paper's Figure 3 walkthrough
	// depends on an indifferent ISP accepting.
	//
	// "Anywhere on the table" means over the alternatives that WOULD be
	// selected for the remaining items under the max-sum criterion — the
	// index's class histograms. This is what an ISP "perceives" about the
	// rest of the negotiation: alternatives the criterion will never pick
	// do not count as potential gain. With a cheating counterpart this is
	// what makes the truthful ISP walk away — its favorable alternatives
	// are still on the table but the distorted sums ensure they are never
	// selected (paper §5.4: "the negotiation terminates prematurely as the
	// truthful ISP stops when it sees no benefit for itself"). Only a
	// proposal negative for the side can make it walk, so its sign is
	// tested before the histogram is scanned.
	walkA := pA < 0 && top(n.idx.histA)-p <= 0
	if walkA && n.cfg.ExtraDeficitA > 0 {
		// The side is repaying credit banked in earlier sessions
		// (internal/credits): it keeps conceding down to its extended
		// deficit bound instead of stopping at its peak.
		walkA = t.gainA+pA < -n.cfg.ExtraDeficitA
	}
	walkB := pB < 0 && top(n.idx.histB)-p <= 0
	if walkB && n.cfg.ExtraDeficitB > 0 {
		walkB = t.gainB+pB < -n.cfg.ExtraDeficitB
	}
	if walkA || walkB {
		return StopSideCannotGain, true
	}
	return 0, false
}

// unwindDeficits rolls back trades at termination while either side's
// cumulative gain is negative: the deficit side's most harmful committed
// trade (ties: cheapest for the other side) reverts to the default, at
// the classes the transcript recorded for it (preferences may have been
// reassigned since). A reverted item sits at its default, so each trade
// reverts at most once and the loop terminates; afterwards both gains
// are >= 0 because a negative cumulative gain always contains a
// negative-class trade. Combined with floor-rounded classes (every class
// is a lower bound on the real improvement), non-negative final class
// gains imply neither ISP's real metric ends worse than the default.
func (n *negotiation) unwindDeficits() {
	for {
		sideA := false
		switch {
		case n.gainA < -n.cfg.ExtraDeficitA:
			sideA = true
		case n.gainB < -n.cfg.ExtraDeficitB:
		default:
			return
		}
		best := -1
		var bestOwn, bestOther int
		for i, p := range n.transcript {
			if !p.Accepted || n.result.Assign[p.ItemID] != p.Alt || p.Alt == n.defaults[p.ItemID] {
				continue
			}
			own, other := p.PrefA, p.PrefB
			if !sideA {
				own, other = p.PrefB, p.PrefA
			}
			if own >= 0 {
				continue
			}
			if best == -1 || own < bestOwn || (own == bestOwn && other < bestOther) {
				best, bestOwn, bestOther = i, own, other
			}
		}
		if best == -1 {
			return // no revertible harmful trade (cannot happen with gains < 0 over non-reverted trades)
		}
		p := n.transcript[best]
		def := n.defaults[p.ItemID]
		n.result.Assign[p.ItemID] = def
		n.gainA -= p.PrefA
		n.gainB -= p.PrefB
		n.result.Reverted++
		if r, ok := n.evalA.(Reverter); ok {
			r.Revert(n.items[p.ItemID], p.Alt, def)
		}
		if r, ok := n.evalB.(Reverter); ok {
			r.Revert(n.items[p.ItemID], p.Alt, def)
		}
	}
}
