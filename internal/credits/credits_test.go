package credits

import (
	"testing"

	"repro/internal/nexit"
	"repro/internal/traffic"
)

// universe is one session's two-alternative negotiation setup.
type universe struct {
	items        []nexit.Item
	defaults     []int
	evalA, evalB nexit.Evaluator
}

// runSessions negotiates the sessions in order, applying the ledger
// before each and settling it after, as the continuous controller does
// once per epoch.
func runSessions(base nexit.Config, ledger *Ledger, universes []universe) ([]*nexit.Result, error) {
	var out []*nexit.Result
	for i, u := range universes {
		res, err := nexit.Negotiate(ledger.Apply(base), u.evalA, u.evalB, u.items, u.defaults, 2)
		if err != nil {
			return nil, err
		}
		ledger.Settle(i, res)
		out = append(out, res)
	}
	return out, nil
}

// imbalance is the magnitude of a ledger's balance.
func imbalance(l *Ledger) int { return max(l.Balance, -l.Balance) }

// staticUniverse builds a session where every flow's non-default
// alternative has the given (prefA, prefB) classes.
func staticUniverse(n int, prefA, prefB int) universe {
	items := make([]nexit.Item, n)
	defaults := make([]int, n)
	tableA := map[int][]int{}
	tableB := map[int][]int{}
	for i := 0; i < n; i++ {
		items[i] = nexit.Item{ID: i, Flow: traffic.Flow{ID: i, Size: 1}}
		tableA[i] = []int{0, prefA}
		tableB[i] = []int{0, prefB}
	}
	return universe{
		items: items, defaults: defaults,
		evalA: &nexit.StaticEvaluator{NumAlts: 2, Table: tableA},
		evalB: &nexit.StaticEvaluator{NumAlts: 2, Table: tableB},
	}
}

func TestLedgerApply(t *testing.T) {
	l := NewLedger(5)
	cfg := nexit.DefaultDistanceConfig()
	// Balanced ledger: no extra deficit.
	c := l.Apply(cfg)
	if c.ExtraDeficitA != 0 || c.ExtraDeficitB != 0 {
		t.Errorf("balanced apply = %d/%d", c.ExtraDeficitA, c.ExtraDeficitB)
	}
	// A ahead by 3: A may dip 3 further.
	l.Balance = 3
	c = l.Apply(cfg)
	if c.ExtraDeficitA != 3 || c.ExtraDeficitB != 0 {
		t.Errorf("A-ahead apply = %d/%d", c.ExtraDeficitA, c.ExtraDeficitB)
	}
	// B ahead by 9, capped at 5.
	l.Balance = -9
	c = l.Apply(cfg)
	if c.ExtraDeficitA != 0 || c.ExtraDeficitB != 5 {
		t.Errorf("B-ahead apply = %d/%d", c.ExtraDeficitA, c.ExtraDeficitB)
	}
}

func TestLedgerSettle(t *testing.T) {
	l := NewLedger(10)
	l.Settle(0, &nexit.Result{GainA: 7, GainB: 2})
	if l.Balance != 5 || imbalance(l) != 5 {
		t.Errorf("balance = %d", l.Balance)
	}
	l.Settle(1, &nexit.Result{GainA: 1, GainB: 8})
	if l.Balance != -2 || imbalance(l) != 2 {
		t.Errorf("balance = %d", l.Balance)
	}
	if len(l.History) != 2 || l.History[1].BalanceAfter != -2 {
		t.Errorf("history = %+v", l.History)
	}
	if l.String() == "" {
		t.Error("empty String")
	}
}

func TestNegativeCapClamped(t *testing.T) {
	if l := NewLedger(-3); l.MaxCredit != 0 {
		t.Errorf("MaxCredit = %d, want 0", l.MaxCredit)
	}
}

// TestCreditsUnlockDeferredCompromise is the core scenario from the
// paper's §3: session 1 only contains flows that favor A (B concedes a
// little for A's big win — B ends at 0 because of its own protection);
// session 2 only contains flows that favor B, but they cost A more than
// A's base deficit bound allows. Without credits, session 2 cannot
// clear those trades; with the banked surplus from session 1, A's
// widened bound lets B collect.
func TestCreditsUnlockDeferredCompromise(t *testing.T) {
	base := nexit.DefaultDistanceConfig()
	base.PrefBound = 10

	// Session 1: 4 flows, each +9 for A, 0 for B -> A banks 36.
	// Session 2: 4 flows, each -4 for A, +9 for B: each trade is
	// jointly good (+5) but 4 of them dip A to -16, beyond the base
	// bound of -10.
	mkUniverses := func() []universe {
		return []universe{
			staticUniverse(4, 9, 0),
			staticUniverse(4, -4, 9),
		}
	}

	// Without credits: A has nothing to gain in session 2, so it walks
	// away before conceding anything (early termination at its peak).
	noCredit := NewLedger(0)
	res, err := runSessions(base, noCredit, mkUniverses())
	if err != nil {
		t.Fatal(err)
	}
	gainB0 := res[1].GainB

	// With credits: A banked +36 in session 1 (capped at 20), so its
	// session-2 bound is -30 and all 4 trades clear.
	withCredit := NewLedger(20)
	res, err = runSessions(base, withCredit, mkUniverses())
	if err != nil {
		t.Fatal(err)
	}
	gainB1 := res[1].GainB

	if gainB1 <= gainB0 {
		t.Errorf("credits did not help B catch up: %d <= %d", gainB1, gainB0)
	}
	if gainB1 != 36 { // all 4 trades at +9
		t.Errorf("with credits B gained %d, want 36", gainB1)
	}
	// And the ledger converged toward balance.
	if imbalance(withCredit) >= imbalance(noCredit) {
		t.Errorf("imbalance with credits %d >= without %d",
			imbalance(withCredit), imbalance(noCredit))
	}
}
