package nexit

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from the current engine")

// gridTrial is one negotiation of the engine grid: fresh evaluators per
// call (mk), the table it runs on, and its configuration.
type gridTrial struct {
	cfg      Config
	mk       func() *StaticEvaluator
	items    []Item
	defaults []int
	numAlts  int
}

// forEachGridTrial generates the 400-trial engine grid — randomized
// preference tables under the one round protocol — and hands each trial
// to fn. The trials deliberately cover the regimes proposal selection
// must survive: deterministic vetoes, batched planning with partial
// accepts, preference reassignment, extra deficit allowances, P = 3,
// and preference tables whose default class is nonzero (the engine
// clamps but does not normalize evaluator output). Generation is sequential over one seeded
// stream, so every caller sees the same 400 negotiations.
func forEachGridTrial(fn func(trial int, g gridTrial)) {
	gridTrials(77, 400, func(trial int) int {
		if trial%3 == 0 {
			return 3
		}
		return 10
	}, fn)
}

// wideBounds are preference bounds whose index rows (4P+2 bits: both
// kinds of 2P+1 class pairs) end just below and just past two 64-bit
// words (P = 31, 32) and well past them: two to seven words.
var wideBounds = []int{31, 32, 50, 64, 100}

// gridTrials generates trials of the engine grid from seed, trial i at
// preference bound bound(i).
func gridTrials(seed int64, trials int, bound func(trial int) int, fn func(trial int, g gridTrial)) {
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		na := 1 + rng.Intn(5)
		n := 1 + rng.Intn(40)
		p := bound(trial)
		mk := func() *StaticEvaluator {
			ev := &StaticEvaluator{NumAlts: na, Table: map[int][]int{}}
			for i := 0; i < n; i++ {
				prefs := make([]int, na)
				for k := range prefs {
					prefs[k] = rng.Intn(2*p+1) - p
				}
				if trial%5 != 0 {
					prefs[i%na] = 0 // honest default; every 5th trial leaves it random
				}
				ev.Table[i] = prefs
			}
			return ev
		}
		items := make([]Item, n)
		defaults := make([]int, n)
		for i := 0; i < n; i++ {
			items[i] = Item{ID: i, Flow: traffic.Flow{ID: i, Size: 1 + rng.Float64()}, Dir: Direction(i % 2)}
			defaults[i] = i % na
		}
		cfg := Config{PrefBound: p}
		switch trial % 4 {
		case 0:
			cfg.ReassignFraction = 0.25
		case 1:
			cfg.ExtraDeficitA = rng.Intn(2 * p)
			cfg.ExtraDeficitB = rng.Intn(2 * p)
		}
		switch trial % 7 {
		case 2:
			// Deterministic vetoes.
			cfg.BatchAcceptHook = vetoing(func(pr Proposal) bool { return (pr.ItemID+pr.Alt)%3 == 0 })
		case 3:
			// Random accepted prefixes: batches are planned, partly
			// applied and their tails put back on the table.
			hookRng := rand.New(rand.NewSource(int64(trial) * 31))
			cfg.BatchAcceptHook = func(batch []Proposal) int {
				return hookRng.Intn(len(batch) + 1)
			}
		}
		fn(trial, gridTrial{cfg: cfg, mk: mk, items: items, defaults: defaults, numAlts: na})
	}
}

// TestEngineGridGolden pins the engine's behaviour on the grid byte for
// byte: every Result (assignment, gains, rounds, negotiated, reverted,
// stop reason, full transcript) is rendered canonically and the sha256
// of the whole rendering must equal the digest recorded in
// testdata/engine_grid.sha256. Every trial must also keep the round
// invariants (checkRoundInvariants). The digest was recorded with the
// engine that still carried the unshipped turn, propose, accept and stop
// policies; regenerate it (-update) only for a deliberate protocol
// change.
func TestEngineGridGolden(t *testing.T) {
	h := sha256.New()
	forEachGridTrial(func(trial int, g gridTrial) {
		res, err := Negotiate(g.cfg, g.mk(), g.mk(), g.items, g.defaults, g.numAlts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, a := range res.Assign {
			if a < 0 || a >= g.numAlts {
				t.Fatalf("trial %d: item %d assigned %d (na=%d)", trial, i, a, g.numAlts)
			}
		}
		if err := checkRoundInvariants(res, len(g.items), g.numAlts); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fmt.Fprintf(h, "trial %d assign %v gains %d %d rounds %d negotiated %d reverted %d stopped %v\n",
			trial, res.Assign, res.GainA, res.GainB, res.Rounds, res.Negotiated, res.Reverted, res.Stopped)
		for _, p := range res.Transcript {
			fmt.Fprintf(h, "  %+v\n", p)
		}
	})
	got := fmt.Sprintf("%x\n", h.Sum(nil))
	const golden = "testdata/engine_grid.sha256"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if strings.TrimSpace(string(want)) != strings.TrimSpace(got) {
		t.Fatalf("engine grid digest %s, golden %s: the engine's behaviour changed",
			strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}
