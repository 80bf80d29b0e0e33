package nexit

import "fmt"

// TurnPolicy decides which ISP proposes in a round (paper §4, "Decide
// turn").
type TurnPolicy int

// Turn policies.
const (
	// Alternate has the ISPs take turns, A first (the paper's choice
	// for its experiments).
	Alternate TurnPolicy = iota
	// LowerGain gives the turn to the ISP with the lower cumulative
	// gain, letting it catch up (the paper notes this approximates
	// max-min fairness when metrics are compatible).
	LowerGain
	// CoinToss picks the proposer uniformly at random each round.
	CoinToss
)

// String names the policy.
func (p TurnPolicy) String() string {
	switch p {
	case Alternate:
		return "alternate"
	case LowerGain:
		return "lower-gain"
	case CoinToss:
		return "coin-toss"
	}
	return fmt.Sprintf("turn(%d)", int(p))
}

// ProposePolicy decides which (flow, alternative) the proposer offers
// (paper §4, "Propose an alternative").
type ProposePolicy int

// Propose policies.
const (
	// MaxSum proposes from the set that maximizes the sum of both ISPs'
	// preferences, breaking ties with the proposer's own preference
	// (the paper's choice; approximates Pareto-optimal outcomes).
	MaxSum ProposePolicy = iota
	// BestLocal proposes the proposer's best local alternative with
	// minimal negative impact on the other ISP (the paper's listed
	// alternative).
	BestLocal
)

// String names the policy.
func (p ProposePolicy) String() string {
	switch p {
	case MaxSum:
		return "max-sum"
	case BestLocal:
		return "best-local"
	}
	return fmt.Sprintf("propose(%d)", int(p))
}

// AcceptPolicy decides whether the non-proposing ISP accepts (paper §4,
// "Accept alternative?").
type AcceptPolicy int

// Accept policies.
const (
	// AlwaysAccept accepts every proposal (the paper's experimental
	// setting, evaluating fully cooperative ISPs).
	AlwaysAccept AcceptPolicy = iota
	// VetoIfLoss rejects a proposal whose acceptance would make the
	// acceptor's cumulative gain negative. This is the veto power the
	// paper gives ISPs so that "negotiating carries no risk": a truthful
	// ISP can never end below the default.
	VetoIfLoss
)

// String names the policy.
func (p AcceptPolicy) String() string {
	switch p {
	case AlwaysAccept:
		return "always-accept"
	case VetoIfLoss:
		return "veto-if-loss"
	}
	return fmt.Sprintf("accept(%d)", int(p))
}

// StopPolicy decides when negotiation ends (paper §4, "Stop?").
type StopPolicy int

// Stop policies.
const (
	// StopEarly is the paper's "early termination": an ISP stops when it
	// perceives no additional gain in continuing — implemented as no
	// positive preference class remaining anywhere on its table.
	// Negotiation also stops when no remaining alternative has positive
	// combined gain.
	StopEarly StopPolicy = iota
	// StopWhilePositive is the paper's "full termination": ISPs continue
	// as long as their cumulative gain stays positive, even if lower
	// than under early termination — preferred for social welfare.
	StopWhilePositive
	// StopNever negotiates every flow on the table ("the socially best
	// outcome occurs when ISPs negotiate for all the flows").
	StopNever
)

// String names the policy.
func (p StopPolicy) String() string {
	switch p {
	case StopEarly:
		return "early"
	case StopWhilePositive:
		return "while-positive"
	case StopNever:
		return "never"
	}
	return fmt.Sprintf("stop(%d)", int(p))
}

// decideTurn applies the turn policy.
func (n *negotiation) decideTurn(t *tally) Side {
	var s Side
	switch n.cfg.Turn {
	case LowerGain:
		switch {
		case t.gainA < t.gainB:
			s = SideA
		case t.gainB < t.gainA:
			s = SideB
		default:
			if t.haveTurn {
				s = t.lastTurn.Other()
			} else {
				s = SideA
			}
		}
	case CoinToss:
		if n.cfg.Rng.Intn(2) == 0 {
			s = SideA
		} else {
			s = SideB
		}
	default: // Alternate
		if t.haveTurn {
			s = t.lastTurn.Other()
		} else {
			s = SideA
		}
	}
	t.lastTurn, t.haveTurn = s, true
	return s
}

// gate decides which cells of the proposal index a proposer may draw
// from, given the cumulative gains: a cell of classes (a, b) is admitted
// when a ≥ floorA and b ≥ floorB and, for an off-default max-sum move,
// the joint gain allows it (a+b > 0, or a+b = 0 with a ≥ evenA and
// b ≥ evenB). pick reads this rule as one interval per index row.
type gate struct {
	// floorA and floorB are the lowest class each side can take.
	//
	// Under early termination, a side may dip into a bounded cumulative
	// deficit — at most one full class unit (-P) below the default, plus
	// its ExtraDeficit — and proposals then prioritize its recovery (see
	// propose). The dip-and-recover pattern is the paper's "trade minor
	// losses on some flows for significant gains on others" realized with
	// alternating turns; the bound keeps the worst case at one class
	// unit, which in real-metric terms is a single q90 delta — negligible
	// against a whole workload, so "negotiating carries no risk" holds in
	// practice even though proposals are always accepted.
	//
	// Under VetoIfLoss the proposer additionally self-censors candidates
	// it cannot strictly afford (the acceptor protects itself in ask).
	floorA, floorB int
	// maxSum applies the max-sum policy's rules for moving a flow off its
	// default: the move needs non-negative joint gain (with the
	// asymmetric cardinal rounding, a class is never an underestimate of
	// a loss, so a sum-zero move is at worst marginally harmful and
	// usually beneficial); and a sum-zero move brings no joint class
	// gain, so unlike a positive-sum one it may not dip either side into
	// a deficit: each class must reach evenA / evenB, the class that
	// leaves the side's cumulative gain at zero. The default alternative
	// itself is exempt from both — staying put is always on offer.
	maxSum       bool
	evenA, evenB int
}

func (n *negotiation) gate(t *tally, proposer Side) gate {
	g := gate{
		floorA: -n.cfg.PrefBound, floorB: -n.cfg.PrefBound,
		maxSum: n.cfg.Propose != BestLocal, evenA: -t.gainA, evenB: -t.gainB,
	}
	if n.cfg.Stop == StopEarly {
		g.floorA = -n.cfg.PrefBound - n.cfg.ExtraDeficitA - t.gainA
		g.floorB = -n.cfg.PrefBound - n.cfg.ExtraDeficitB - t.gainB
	}
	if n.cfg.Accept == VetoIfLoss {
		if proposer == SideA {
			g.floorA = max(g.floorA, g.evenA)
		} else {
			g.floorB = max(g.floorB, g.evenB)
		}
	}
	return g
}

// propose applies the propose policy for the given proposer and returns
// the chosen (item, alternative). ok is false when nothing proposable
// remains. MaxSum proposes from the set that maximizes the combined
// class sum, breaking ties with the proposer's own class; BestLocal
// maximizes the proposer's own class and breaks ties by the least harm
// to the other ISP. Both then prefer the item with the higher best
// combined sum, the lower ID and the lower alternative, which is the
// order inside the index's cells.
func (n *negotiation) propose(t *tally, proposer Side) (id, alt int, ok bool) {
	g := n.gate(t, proposer)
	// When a side is in cumulative deficit (it dipped to enable a large
	// joint win), recovery comes first: restrict the choice to candidates
	// strictly positive for the deficit side so its gain is repaired
	// before further trades. Fall back to the plain choice if no recovery
	// candidate is proposable.
	if g.maxSum && n.cfg.Stop == StopEarly && (t.gainA < 0 || t.gainB < 0) {
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
// in the proposer's order of preference. It visits the index's rows in
// that order and, in each, intersects the occupancy bitsets with the
// gate's interval for the row (see proposalIndex); the first row with a
// bit left holds the answer. The off-default and default cells of one
// class pair rank equally, so the earlier of their two heads in the
// tie-break order wins.
func (n *negotiation) pick(proposer Side, g *gate) (id, alt int, ok bool) {
	x, p := &n.idx, n.cfg.PrefBound
	floorOwn, floorOther, evenOwn, evenOther := g.floorA, g.floorB, g.evenA, g.evenB
	if proposer == SideB {
		floorOwn, floorOther, evenOwn, evenOther = g.floorB, g.floorA, g.evenB, g.evenA
	}
	last := min(x.rows-1, 2*p-floorOwn-floorOther)
	if !g.maxSum {
		last = min(x.rows-1, p-floorOwn)
	}
	for r := x.firstRow[proposer]; r <= last; r++ {
		off, def := x.occRow(proposer, r)
		if r == x.firstRow[proposer] && empty(off) && empty(def) {
			x.firstRow[proposer]++ // nothing comes back before the next build
			continue
		}
		// The gate's intervals of bits (P minus a class; see rank) for
		// the row's default and off-default cells.
		lo, hi := 0, p-floorOther
		offLo, offHi := lo, hi
		if g.maxSum {
			s := 2*p - r
			lo, hi = p-s+floorOther, p-floorOwn
			switch {
			case s > 0:
				offLo, offHi = lo, hi
			case s == 0:
				offLo, offHi = max(lo, p+evenOther), min(hi, p-evenOwn)
			default:
				offLo, offHi = 1, 0
			}
		}
		bo, bd := lowest(off, offLo, offHi), lowest(def, lo, hi)
		var e entry
		switch {
		case bo < 0 && bd < 0:
			continue
		case bd < 0 || (bo >= 0 && bo < bd):
			e, _ = n.first(n.cell(n.classesAt(proposer, r, bo)))
		case bo < 0 || bd < bo:
			e, _ = n.first(n.cell(n.classesAt(proposer, r, bd)) + 1)
		default:
			c := n.cell(n.classesAt(proposer, r, bo))
			e, _ = n.first(c)
			if f, _ := n.first(c + 1); n.before(f, e) {
				e = f
			}
		}
		return int(e.item), int(e.alt), true
	}
	return -1, -1, false
}
