package nexit

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/traffic"
)

// This file is the engine's oracle: the protocol written the direct way —
// one proposal per round, every proposal an O(items × alternatives) scan
// over the preference tables, the stop check an O(items) scan — with no
// index, no planning and no state shared with the engine beyond the
// exported types. It is the pre-index engine's reference path, moved
// here with its caches and early exits taken out; the
// TestEngineMatchesReference tests hold Negotiate to it.

type refNegotiation struct {
	cfg Config
	// accept asks the counterpart about one proposal; nil accepts all.
	accept       func(acceptor Side, p Proposal) bool
	items        []Item
	defaults     []int
	evalA, evalB Evaluator
	numAlts      int

	prefsA, prefsB [][]int
	remaining      []bool
	vetoed         map[[2]int]bool
	order          []int // remaining IDs by best combined gain desc, ID asc
	commits        []refCommit
	result         *Result

	totalSize, sinceReassign float64
	turn                     Side // who proposes next
}

type refCommit struct {
	id, alt, pA, pB int
	reverted        bool
}

func referenceNegotiate(cfg Config, accept func(Side, Proposal) bool, evalA, evalB Evaluator, items []Item, defaults []int, numAlts int) *Result {
	n := &refNegotiation{
		cfg: cfg, accept: accept, items: items, defaults: defaults, evalA: evalA, evalB: evalB, numAlts: numAlts,
		prefsA: make([][]int, len(items)), prefsB: make([][]int, len(items)),
		remaining: make([]bool, len(items)),
		vetoed:    map[[2]int]bool{},
		result:    &Result{Assign: append([]int(nil), defaults...)},
	}
	for i, it := range items {
		n.remaining[i] = true
		n.totalSize += it.Flow.Size
	}
	n.refreshPrefs()
	n.run()
	n.unwindDeficits()
	return n.result
}

func (n *refNegotiation) refreshPrefs() {
	var rem []Item
	var defaults []int
	for _, it := range n.items {
		if n.remaining[it.ID] {
			rem = append(rem, it)
			defaults = append(defaults, n.defaults[it.ID])
		}
	}
	clamp := func(p []int) []int {
		out := make([]int, len(p))
		for i, v := range p {
			out[i] = min(max(v, -n.cfg.PrefBound), n.cfg.PrefBound)
		}
		return out
	}
	pa := n.evalA.Prefs(rem, defaults)
	for i, it := range rem {
		n.prefsA[it.ID] = clamp(pa[i])
	}
	pb := n.evalB.Prefs(rem, defaults)
	for i, it := range rem {
		n.prefsB[it.ID] = clamp(pb[i])
	}
	n.rebuildOrder()
}

// bestAlt returns the best non-vetoed alternative of an item under the
// max-sum criterion and its combined gain.
func (n *refNegotiation) bestAlt(id int) (alt, sum int) {
	alt, sum = n.defaults[id], -1<<30
	for k := 0; k < n.numAlts; k++ {
		if n.vetoed[[2]int{id, k}] {
			continue
		}
		if s := n.prefsA[id][k] + n.prefsB[id][k]; s > sum {
			sum, alt = s, k
		}
	}
	return alt, sum
}

func (n *refNegotiation) rebuildOrder() {
	n.order = n.order[:0]
	for id := range n.items {
		if n.remaining[id] {
			n.order = append(n.order, id)
		}
	}
	sort.SliceStable(n.order, func(i, j int) bool {
		_, si := n.bestAlt(n.order[i])
		_, sj := n.bestAlt(n.order[j])
		if si != sj {
			return si > sj
		}
		return n.order[i] < n.order[j]
	})
}

func (n *refNegotiation) compactOrder() {
	live := n.order[:0]
	for _, id := range n.order {
		if n.remaining[id] {
			live = append(live, id)
		}
	}
	n.order = live
}

func (n *refNegotiation) run() {
	for {
		n.compactOrder()
		if len(n.order) == 0 {
			n.result.Stopped = StopAllNegotiated
			return
		}
		proposer := n.turn
		id, alt, ok := n.propose(proposer)
		if !ok {
			proposer = proposer.Other()
			id, alt, ok = n.propose(proposer)
		}
		if !ok {
			n.result.Stopped = StopNoJointGain
			return
		}
		if reason, stop := n.shouldStop(id, alt); stop {
			n.result.Stopped = reason
			return
		}
		pA, pB := n.prefsA[id][alt], n.prefsB[id][alt]
		n.turn = proposer.Other()
		accepted := n.ask(proposer.Other(), id, alt)
		n.result.Transcript = append(n.result.Transcript, Proposal{
			Round: n.result.Rounds, Proposer: proposer, ItemID: id, Alt: alt,
			PrefA: pA, PrefB: pB, Accepted: accepted,
		})
		n.result.Rounds++
		if !accepted {
			n.vetoed[[2]int{id, alt}] = true
			n.rebuildOrder()
			continue
		}
		n.commit(id, alt, pA, pB)
	}
}

// affordable reports whether (item, alt) keeps both cumulative gains
// within their deficit bounds.
func (n *refNegotiation) affordable(id, alt int) bool {
	pa, pb := n.prefsA[id][alt], n.prefsB[id][alt]
	boundA := -n.cfg.PrefBound - n.cfg.ExtraDeficitA
	boundB := -n.cfg.PrefBound - n.cfg.ExtraDeficitB
	return n.result.GainA+pa >= boundA && n.result.GainB+pb >= boundB
}

func (n *refNegotiation) propose(proposer Side) (id, alt int, ok bool) {
	own := n.prefsA
	if proposer == SideB {
		own = n.prefsB
	}
	// A side in cumulative deficit recovers first: restrict the scan to
	// candidates strictly positive for it, falling back to the plain scan
	// if none is proposable.
	if n.result.GainA < 0 {
		if id, alt, ok := n.scanMaxSum(own, n.prefsA); ok {
			return id, alt, true
		}
	} else if n.result.GainB < 0 {
		if id, alt, ok := n.scanMaxSum(own, n.prefsB); ok {
			return id, alt, true
		}
	}
	return n.scanMaxSum(own, nil)
}

// scanMaxSum finds the affordable, non-vetoed candidate maximizing the
// combined preference sum, breaking ties with the proposer's own
// preference, then order position, then the lowest alternative. A
// non-nil recover table restricts the scan to candidates strictly
// positive in it.
func (n *refNegotiation) scanMaxSum(own, recover [][]int) (id, alt int, ok bool) {
	id, alt = -1, -1
	bestSum, bestOwn := -1<<30, -1<<30
	gA, gB := n.result.GainA, n.result.GainB
	for _, cand := range n.order {
		def := n.defaults[cand]
		for k := 0; k < n.numAlts; k++ {
			if n.vetoed[[2]int{cand, k}] || !n.affordable(cand, k) {
				continue
			}
			if recover != nil && recover[cand][k] <= 0 {
				continue
			}
			pak, pbk := n.prefsA[cand][k], n.prefsB[cand][k]
			s := pak + pbk
			// Moving a flow off its default requires non-negative joint
			// gain.
			if k != def && s < 0 {
				continue
			}
			// Sum-zero trades may not dip either side into a deficit.
			if k != def && s == 0 && (gA+pak < 0 || gB+pbk < 0) {
				continue
			}
			if s > bestSum || (s == bestSum && own[cand][k] > bestOwn) {
				bestSum, bestOwn, id, alt = s, own[cand][k], cand, k
			}
		}
	}
	return id, alt, id >= 0
}

func (n *refNegotiation) ask(acceptor Side, id, alt int) bool {
	if n.accept == nil {
		return true
	}
	return n.accept(acceptor, Proposal{
		Round: n.result.Rounds, ItemID: id, Alt: alt,
		Proposer: acceptor.Other(),
		PrefA:    n.prefsA[id][alt], PrefB: n.prefsB[id][alt],
	})
}

// maxSelectedPrefRef returns each side's highest class over the
// alternatives the max-sum criterion would select for the remaining
// items.
func (n *refNegotiation) maxSelectedPrefRef() (maxA, maxB int) {
	maxA, maxB = -1<<30, -1<<30
	for _, id := range n.order {
		alt, _ := n.bestAlt(id)
		maxA = max(maxA, n.prefsA[id][alt])
		maxB = max(maxB, n.prefsB[id][alt])
	}
	return maxA, maxB
}

func (n *refNegotiation) shouldStop(id, alt int) (StopReason, bool) {
	pA, pB := n.prefsA[id][alt], n.prefsB[id][alt]
	if pA+pB < 0 {
		return StopNoJointGain, true
	}
	maxA, maxB := n.maxSelectedPrefRef()
	walkA := maxA <= 0 && pA < 0
	if walkA && n.cfg.ExtraDeficitA > 0 {
		walkA = n.result.GainA+pA < -n.cfg.ExtraDeficitA
	}
	walkB := maxB <= 0 && pB < 0
	if walkB && n.cfg.ExtraDeficitB > 0 {
		walkB = n.result.GainB+pB < -n.cfg.ExtraDeficitB
	}
	if walkA || walkB {
		return StopSideCannotGain, true
	}
	return 0, false
}

func (n *refNegotiation) commit(id, alt, pA, pB int) {
	n.commits = append(n.commits, refCommit{id: id, alt: alt, pA: pA, pB: pB})
	n.remaining[id] = false
	n.result.Assign[id] = alt
	n.result.GainA += pA
	n.result.GainB += pB
	n.result.Negotiated++
	it := n.items[id]
	n.evalA.Commit(it, alt)
	n.evalB.Commit(it, alt)
	n.sinceReassign += it.Flow.Size
	if n.cfg.ReassignFraction > 0 && n.totalSize > 0 &&
		n.sinceReassign >= n.cfg.ReassignFraction*n.totalSize {
		n.sinceReassign = 0
		n.refreshPrefs()
	}
}

func (n *refNegotiation) unwindDeficits() {
	for {
		sideA := false
		switch {
		case n.result.GainA < -n.cfg.ExtraDeficitA:
			sideA = true
		case n.result.GainB < -n.cfg.ExtraDeficitB:
		default:
			return
		}
		best := -1
		for i, rec := range n.commits {
			if rec.reverted || n.result.Assign[rec.id] != rec.alt || rec.alt == n.defaults[rec.id] {
				continue
			}
			own, other := rec.pA, rec.pB
			if !sideA {
				own, other = rec.pB, rec.pA
			}
			if own >= 0 {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			bOwn, bOther := n.commits[best].pA, n.commits[best].pB
			if !sideA {
				bOwn, bOther = n.commits[best].pB, n.commits[best].pA
			}
			if own < bOwn || (own == bOwn && other < bOther) {
				best = i
			}
		}
		if best == -1 {
			return
		}
		rec := &n.commits[best]
		rec.reverted = true
		n.result.Assign[rec.id] = n.defaults[rec.id]
		n.result.GainA -= rec.pA
		n.result.GainB -= rec.pB
		n.result.Reverted++
		it := n.items[rec.id]
		if r, ok := n.evalA.(Reverter); ok {
			r.Revert(it, rec.alt, n.defaults[rec.id])
		}
		if r, ok := n.evalB.(Reverter); ok {
			r.Revert(it, rec.alt, n.defaults[rec.id])
		}
	}
}

// serialTwin returns how the oracle must answer proposals to retrace
// the engine's run: for a trial with a BatchAcceptHook, a per-proposal
// accept that replays the engine's decisions round by round. Run the
// engine on the returned engine config, which records those decisions.
func serialTwin(cfg Config) (engine Config, accept func(Side, Proposal) bool) {
	engine = cfg
	if hook := cfg.BatchAcceptHook; hook != nil {
		accepted := map[int]bool{} // round -> decision, as the engine heard it
		engine.BatchAcceptHook = func(batch []Proposal) int {
			k := hook(batch)
			for i := 0; i <= k && i < len(batch); i++ {
				accepted[batch[i].Round] = i < k
			}
			return k
		}
		accept = func(_ Side, p Proposal) bool {
			ok, asked := accepted[p.Round]
			if !asked {
				panic("oracle reached a round the engine never asked about")
			}
			return ok
		}
	}
	return engine, accept
}

// vetoing is the BatchAcceptHook of a counterpart that vetoes the
// proposals veto picks: it accepts each batch up to the first of them.
func vetoing(veto func(Proposal) bool) func([]Proposal) int {
	return func(batch []Proposal) int {
		for i, p := range batch {
			if veto(p) {
				return i
			}
		}
		return len(batch)
	}
}

// mustMatchReference runs the engine and the oracle on one negotiation
// and fails the test unless the two Results are deeply equal.
func mustMatchReference(t *testing.T, trial int, engineCfg Config, accept func(Side, Proposal) bool, evA, evB Evaluator, items []Item, defaults []int, na int) *Result {
	t.Helper()
	got, err := Negotiate(engineCfg, evA, evB, items, defaults, na)
	if err != nil {
		t.Fatalf("trial %d: %v", trial, err)
	}
	want := referenceNegotiate(engineCfg, accept, evA, evB, items, defaults, na)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trial %d (%+v): engine diverged from the reference\nengine:    %+v\nreference: %+v",
			trial, engineCfg, got, want)
	}
	return got
}

// unitItems returns n unit-size items with defaults cycling over na
// alternatives.
func unitItems(n, na int) (items []Item, defaults []int) {
	items, defaults = make([]Item, n), make([]int, n)
	for i := range items {
		items[i] = Item{ID: i, Flow: traffic.Flow{ID: i, Size: 1}}
		defaults[i] = i % na
	}
	return items, defaults
}

// roundsProposedFrom counts the rounds of a transcript that were
// proposed from a gain state satisfying in.
func roundsProposedFrom(tr []Proposal, in func(gainA, gainB int) bool) (rounds int) {
	gA, gB := 0, 0
	for _, pr := range tr {
		if in(gA, gB) {
			rounds++
		}
		if pr.Accepted {
			gA, gB = gA+pr.PrefA, gB+pr.PrefB
		}
	}
	return rounds
}

// TestEngineMatchesReference holds Negotiate to the oracle above on the
// engine grid — reflect.DeepEqual on the whole Result — and on a
// second grid at the wide bounds, where index rows take several words.
// Batched trials (random accepted prefixes) are compared against the
// serial oracle driven by the decisions the engine's hook returned.
func TestEngineMatchesReference(t *testing.T) {
	check := func(trial int, g gridTrial) {
		evA, evB := g.mk(), g.mk() // static tables: engine and oracle share them
		engineCfg, accept := serialTwin(g.cfg)
		mustMatchReference(t, trial, engineCfg, accept, evA, evB, g.items, g.defaults, g.numAlts)
	}
	forEachGridTrial(check)
	gridTrials(78, 210, func(trial int) int { return wideBounds[trial%len(wideBounds)] }, check)
}

// TestEngineMatchesReferenceDeficitRecovery aims at the regime the
// bandwidth experiments live in and the grid's uniform tables rarely
// enter: max-sum under early termination with one side in cumulative
// deficit, where proposals are first restricted to what repairs that
// side. Half of the off-default alternatives cost one side a class or
// three for a near-P win of the other; the rest repay that side at a
// lower sum, some of them neutral for the other — so the best sums keep
// dipping one side and the recovery pass keeps choosing among repayments.
func TestEngineMatchesReferenceDeficitRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recovering := 0
	bounds := append([]int{10, 3}, wideBounds...)
	for trial := 0; trial < 420; trial++ {
		p := bounds[trial%len(bounds)]
		na, n, small := 2+rng.Intn(4), 2+rng.Intn(40), max(1, p/3)
		evA := &StaticEvaluator{NumAlts: na, Table: map[int][]int{}}
		evB := &StaticEvaluator{NumAlts: na, Table: map[int][]int{}}
		for i := 0; i < n; i++ {
			a, b := make([]int, na), make([]int, na)
			for k := range a {
				if k == i%na {
					continue // the default: class 0 on both sides
				}
				// The high sums dip one side a little for the other's
				// big win; what repays it sums lower.
				x, y := -(1 + rng.Intn(small)), p-rng.Intn(small+1)
				if rng.Intn(2) == 0 {
					x = rng.Intn(small + 2)
					y = -rng.Intn(x + 1)
					if x == 0 {
						y = rng.Intn(p + 1) // neutral for the dipped side
					}
				}
				if trial%4 < 2 {
					a[k], b[k] = x, y
				} else {
					a[k], b[k] = y, x
				}
			}
			evA.Table[i], evB.Table[i] = a, b
		}
		items, defaults := unitItems(n, na)
		cfg := Config{PrefBound: p}
		switch trial % 5 {
		case 0:
			cfg.ExtraDeficitA, cfg.ExtraDeficitB = rng.Intn(2*p), rng.Intn(2*p)
		case 1:
			cfg.ReassignFraction = 0.2
		case 2:
			hookRng := rand.New(rand.NewSource(int64(trial)))
			cfg.BatchAcceptHook = func(batch []Proposal) int { return hookRng.Intn(len(batch) + 1) }
		}
		engineCfg, accept := serialTwin(cfg)
		res := mustMatchReference(t, trial, engineCfg, accept, evA, evB, items, defaults, na)
		recovering += roundsProposedFrom(res.Transcript, func(gA, gB int) bool { return gA < 0 || gB < 0 })
	}
	if recovering < 300 {
		t.Fatalf("only %d rounds were proposed with a side in deficit; the tables no longer reach the regime", recovering)
	}
}

// TestEngineMatchesReferenceBothNegative holds the engine to the oracle
// on tables skewed negative, defaults included (an evaluator that does
// not normalize its default to 0), and reaching past [-P, P] so clamping
// is exercised too. Even on these tables the state with both cumulative
// gains negative is unreachable, because no accepted proposal lowers the
// joint gain; the test asserts that invariant.
func TestEngineMatchesReferenceBothNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bounds := append([]int{10, 3}, wideBounds...)
	for trial := 0; trial < 420; trial++ {
		p := bounds[trial%len(bounds)]
		na, n := 1+rng.Intn(4), 2+rng.Intn(30)
		mk := func() *StaticEvaluator {
			ev := &StaticEvaluator{NumAlts: na, Table: map[int][]int{}}
			for i := 0; i < n; i++ {
				ev.Table[i] = make([]int, na)
				for k := range ev.Table[i] {
					ev.Table[i][k] = rng.Intn(2*p+1) - p - rng.Intn(p)
				}
			}
			return ev
		}
		items, defaults := unitItems(n, na)
		cfg := Config{PrefBound: p}
		if trial%3 == 0 {
			cfg.ExtraDeficitA, cfg.ExtraDeficitB = rng.Intn(2*p), rng.Intn(2*p)
		}
		res := mustMatchReference(t, trial, cfg, nil, mk(), mk(), items, defaults, na)
		if err := checkRoundInvariants(res, n, na); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzNegotiateMatchesReference holds Negotiate to the oracle on tables
// and parameters decoded from the input: a preference bound up to the
// wire's 127, up to 48 items and 8 alternatives, both sides' class
// tables (raw int8s, so past ±P too, and at nonzero defaults),
// reassignment, extra deficits, and a batch hook's accepted prefixes.
// The whole Results must be deeply equal, and the engine's must keep the
// round invariants. Each input runs on the engine state a warm-up
// negotiation of another shape left behind (see warmUps).
//
// Of the fourth byte only the 0x40 (reassign) and 0x80 (extra deficits)
// bits are read, and the sixth byte is skipped: the layout is kept so
// that recorded inputs keep their meaning.
func FuzzNegotiateMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	for _, p := range []byte{0, 2, 9, 30, 31, 49, 63, 99, 126} {
		for _, flags := range []byte{0x00, 0x84, 0x49, 0xc6} {
			seed := []byte{p, byte(rng.Intn(48)), byte(rng.Intn(8)), flags, byte(rng.Intn(256)), byte(rng.Intn(256))}
			for i := rng.Intn(400); i > 0; i-- {
				seed = append(seed, byte(rng.Intn(2*int(p)+3)-int(p)-1))
			}
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		p, n, na := 1+int(next()%127), 1+int(next()%48), 1+int(next()%8)
		flags, extra := next(), next()
		next() // unused, see the layout note above
		cfg := Config{PrefBound: p}
		if flags&0x40 != 0 {
			cfg.ReassignFraction = 0.25
		}
		if flags&0x80 != 0 {
			cfg.ExtraDeficitA, cfg.ExtraDeficitB = int(extra&15), int(extra>>4)
		}
		mk := func() *StaticEvaluator {
			ev := &StaticEvaluator{NumAlts: na, Table: map[int][]int{}}
			for i := 0; i < n; i++ {
				ev.Table[i] = make([]int, na)
				for k := range ev.Table[i] {
					ev.Table[i][k] = int(int8(next()))
				}
			}
			return ev
		}
		evA, evB := mk(), mk()
		if extra&1 != 0 {
			// What is left of the input is the counterpart's answers, one
			// byte per batch; once it runs out every batch is accepted.
			cfg.BatchAcceptHook = func(batch []Proposal) int {
				if len(data) == 0 {
					return len(batch)
				}
				return int(next()) % (len(batch) + 1)
			}
		}
		items, defaults := unitItems(n, na)
		warmUp(t, n*na)
		engineCfg, accept := serialTwin(cfg)
		res := mustMatchReference(t, 0, engineCfg, accept, evA, evB, items, defaults, na)
		if err := checkRoundInvariants(res, n, na); err != nil {
			t.Fatal(err)
		}
	})
}

// warmUps are the two negotiations FuzzNegotiateMatchesReference runs
// before an input: a large one, 48 items × 8 alternatives at P = 50 with
// a batch hook vetoing every seventh cell, for inputs of at most 96
// cells, and a small one, one item and one alternative at P = 1, for
// larger inputs. So the input always runs on a state of another shape,
// left with vetoes or left too small. Both are fixed, so they add the
// same coverage to every input.
var warmUps = func() (w [2]struct {
	cfg      Config
	evA, evB Evaluator
	items    []Item
	defaults []int
	numAlts  int
}) {
	rng := rand.New(rand.NewSource(7))
	for i, shape := range [2][3]int{{48, 8, 50}, {1, 1, 1}} {
		n, na, p := shape[0], shape[1], shape[2]
		mk := func() *StaticEvaluator {
			ev := &StaticEvaluator{NumAlts: na, Table: map[int][]int{}}
			for i := 0; i < n; i++ {
				ev.Table[i] = make([]int, na)
				for k := range ev.Table[i] {
					ev.Table[i][k] = rng.Intn(2*p+3) - p - 1
				}
			}
			return ev
		}
		w[i].cfg = Config{PrefBound: p, BatchAcceptHook: vetoing(func(pr Proposal) bool { return (pr.ItemID*na+pr.Alt)%7 == 3 })}
		w[i].evA, w[i].evB, w[i].numAlts = mk(), mk(), na
		w[i].items, w[i].defaults = unitItems(n, na)
	}
	return w
}()

// warmUp empties the engine's free list and runs the warm-up for an
// input of cells (item, alternative) cells, so that the next Negotiate
// on this goroutine reuses the state it leaves behind.
func warmUp(t *testing.T, cells int) {
	t.Helper()
	for len(states) > 0 {
		<-states
	}
	w := warmUps[0]
	if cells > 96 {
		w = warmUps[1]
	}
	if _, err := Negotiate(w.cfg, w.evA, w.evB, w.items, w.defaults, w.numAlts); err != nil {
		t.Fatal(err)
	}
}
