// Package credits implements the credit mechanism the paper sketches as
// future work in §3: "For systems where simultaneous, mutual compromises
// are hard to find, compromises can be decoupled in time using
// 'credits'."
//
// Negotiation is a continuous process between neighbors (§6, "When to
// negotiate?"). Some sessions end lopsided — one ISP collected most of
// the class gain because the flows on the table that day happened to
// favor it. A credit ledger carries the imbalance forward: the side that
// banked the surplus enters the next session with a widened deficit
// allowance (it can afford concessions now), and the side that fell
// behind gets priority to catch up. Over a sequence of sessions the
// cumulative gains converge even when any single session cannot be
// balanced.
package credits

import (
	"fmt"

	"repro/internal/nexit"
)

// Ledger tracks the running imbalance between the two ISPs of a pair.
// A positive balance means ISP A is ahead (A owes concessions to B).
type Ledger struct {
	// Balance is A's cumulative class-gain surplus over B.
	Balance int
	// MaxCredit caps how much imbalance is carried into a session as
	// extra deficit allowance; the cap bounds each side's worst-case
	// exposure exactly like the base deficit bound does.
	MaxCredit int
	// History records settled sessions.
	History []Entry
}

// Entry is one settled session.
type Entry struct {
	Session      int
	GainA, GainB int
	BalanceAfter int
}

// NewLedger returns a ledger capping carried credit at maxCredit class
// units per session.
func NewLedger(maxCredit int) *Ledger {
	if maxCredit < 0 {
		maxCredit = 0
	}
	return &Ledger{MaxCredit: maxCredit}
}

// Apply configures a negotiation session with the current balance: the
// side that is ahead may dip further below its default (repaying), up to
// MaxCredit.
func (l *Ledger) Apply(cfg nexit.Config) nexit.Config {
	credit := l.Balance
	if credit > l.MaxCredit {
		credit = l.MaxCredit
	}
	if credit < -l.MaxCredit {
		credit = -l.MaxCredit
	}
	cfg.ExtraDeficitA, cfg.ExtraDeficitB = 0, 0
	if credit > 0 {
		cfg.ExtraDeficitA = credit // A is ahead: A absorbs more now
	} else if credit < 0 {
		cfg.ExtraDeficitB = -credit
	}
	return cfg
}

// Settle records a session outcome and updates the balance.
func (l *Ledger) Settle(session int, res *nexit.Result) {
	l.Balance += res.GainA - res.GainB
	l.History = append(l.History, Entry{
		Session: session, GainA: res.GainA, GainB: res.GainB, BalanceAfter: l.Balance,
	})
}

// String summarizes the ledger.
func (l *Ledger) String() string {
	return fmt.Sprintf("credits: balance %+d over %d sessions (cap %d)",
		l.Balance, len(l.History), l.MaxCredit)
}
