package nexit

import "math/bits"

// The round protocol's rules (paper §4). The paper lists alternatives for
// each step; its experiments (§5) run one combination, and so does this
// engine: the ISPs take turns, A first (the tally's turn); the proposer
// offers from the set that maximizes the sum of both ISPs' classes,
// breaking ties with its own class (propose); the counterpart accepts
// unless its accept hook vetoes (ask); and negotiation ends early, when
// one ISP cannot gain more or no joint gain remains (shouldStop). What
// stays configurable is the class bound P, preference reassignment and
// the deficit allowances (Config).

// gate decides which cells of the proposal index a proposer may draw
// from, given the cumulative gains: a cell of classes (a, b) is admitted
// when a ≥ floorA and b ≥ floorB and, for an off-default move, the joint
// gain allows it (a+b > 0, or a+b = 0 with a ≥ evenA and b ≥ evenB). pick
// reads this rule as a lower bound fixed for the pick and an upper bound
// per index row.
type gate struct {
	// floorA and floorB are the lowest class each side can take.
	//
	// A side may dip into a bounded cumulative deficit — at most one full
	// class unit (-P) below the default, plus its ExtraDeficit — and
	// proposals then prioritize its recovery (see propose). The
	// dip-and-recover pattern is the paper's "trade minor losses on some
	// flows for significant gains on others" realized with alternating
	// turns; the bound keeps the worst case at one class unit, which in
	// real-metric terms is a single q90 delta — negligible against a whole
	// workload, so "negotiating carries no risk" holds in practice even
	// though proposals are always accepted.
	floorA, floorB int
	// evenA and evenB are the classes that leave each side's cumulative
	// gain at zero. Moving a flow off its default needs non-negative joint
	// gain (with the asymmetric cardinal rounding, a class is never an
	// underestimate of a loss, so a sum-zero move is at worst marginally
	// harmful and usually beneficial); and a sum-zero move brings no joint
	// class gain, so unlike a positive-sum one it may not dip either side
	// into a deficit: each class must reach evenA / evenB. The default
	// alternative itself is exempt from both — staying put is always on
	// offer.
	evenA, evenB int
}

func (n *negotiation) gate(t *tally) gate {
	return gate{
		floorA: -n.cfg.PrefBound - n.cfg.ExtraDeficitA - t.gainA,
		floorB: -n.cfg.PrefBound - n.cfg.ExtraDeficitB - t.gainB,
		evenA:  -t.gainA, evenB: -t.gainB,
	}
}

// propose returns the (item, alternative) the proposer offers. ok is
// false when nothing proposable remains. The choice maximizes the
// combined class sum, breaking ties with the proposer's own class, then
// prefers the item with the higher best combined sum, the lower ID and
// the lower alternative, which is the order inside the index's cells.
func (n *negotiation) propose(t *tally, proposer Side) (id, alt int, ok bool) {
	g := n.gate(t)
	// When a side is in cumulative deficit (it dipped to enable a large
	// joint win), recovery comes first: restrict the choice to candidates
	// strictly positive for the deficit side so its gain is repaired
	// before further trades. Fall back to the plain choice if no recovery
	// candidate is proposable. The joint gain never falls, so at most one
	// side is in deficit.
	if t.gainA < 0 || t.gainB < 0 {
		r := g
		if t.gainA < 0 {
			r.floorA = max(r.floorA, 1)
		} else {
			r.floorB = max(r.floorB, 1)
		}
		if id, alt, ok = n.pick(proposer, &r); ok {
			return id, alt, true
		}
	}
	return n.pick(proposer, &g)
}

// pick returns the first live entry of the first cell the gate admits,
// in the proposer's order of preference. It visits the index's rows that
// hold a live cell in that order and, in each, takes the lowest occupied
// bit from the gate's lower bound on; the first row where that bit is
// inside the row's upper bound holds the answer (see proposalIndex). The
// off-default and default cells of one class pair rank equally, so the
// earlier of their two heads in the tie-break order wins.
func (n *negotiation) pick(proposer Side, g *gate) (id, alt int, ok bool) {
	x, p, words := &n.idx, n.cfg.PrefBound, n.idx.words
	floorOwn, floorOther, evenOwn, evenOther := g.floorA, g.floorB, g.evenA, g.evenB
	if proposer == SideB {
		floorOwn, floorOther, evenOwn, evenOther = g.floorB, g.floorA, g.evenB, g.evenA
	}
	// In row r, pair j (the other side's class j − P, own class
	// 3P − r − j; bits 2j and 2j+1) is admitted from bit lo on, the same
	// in every row, and while the own class reaches floorOwn: while
	// j + r ≤ reach.
	lo, reach := 2*max(0, p+floorOther), 3*p-floorOwn
	if lo >= 2*x.width {
		return -1, -1, false
	}
	loWord, loMask := lo/64, ^uint64(0)<<(lo%64)
	last := min(x.rows-1, reach-lo/2)
	occ := x.occ[int(proposer)*x.rows*words:][:x.rows*words]
	for r := x.nextRow(0); r <= last; r = x.nextRow(r + 1) {
		// Row r starts at word at; top is the last bit its upper bound
		// admits.
		at, top := r*words, 2*(reach-r)+1
		w, end, mask, word := at+loWord, at+min(words-1, top>>6), loMask, uint64(0)
		for {
			word = occ[w] & mask
			if r == 2*p {
				// At s = 0 only the off-default cells whose other class
				// is in [evenOther, −evenOwn] pass.
				word &= defaultBits | span(2*(p+evenOther), 2*(p-evenOwn), w-at)&^defaultBits
			}
			if word != 0 || w == end {
				break
			}
			w, mask = w+1, ^uint64(0)
		}
		if word == 0 {
			continue
		}
		b := bits.TrailingZeros64(word)
		bit := 64*(w-at) + b
		if bit > top {
			continue
		}
		j := bit / 2
		own, other := 3*p-r-j, j-p
		c := n.cell(own, other)
		if proposer == SideB {
			c = n.cell(other, own)
		}
		var e entry
		switch {
		case b%2 == 1:
			e, _ = n.first(c + 1)
		case word>>(b+1)&1 == 0:
			e, _ = n.first(c)
		default:
			e, _ = n.first(c)
			if f, _ := n.first(c + 1); n.before(f, e) {
				e = f
			}
		}
		return int(e.item), int(e.alt), true
	}
	return -1, -1, false
}

// defaultBits are the default cells' bits of an occupancy word.
const defaultBits uint64 = 0xaaaa_aaaa_aaaa_aaaa

// span returns word w of the bitset whose bits lo to hi are set.
func span(lo, hi, w int) uint64 {
	lo, hi = max(lo-64*w, 0), min(hi-64*w, 63)
	if lo > hi {
		return 0
	}
	return ^uint64(0) << lo & (^uint64(0) >> (63 - hi))
}
