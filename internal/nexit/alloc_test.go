package nexit

import (
	"testing"

	"repro/internal/traffic"
)

// TestEvaluatorSteadyStateDoesNotAllocate pins the scratch-reuse
// contract (DESIGN.md §12): once an evaluator's buffers are warm, the
// steady-state negotiation hot path — Prefs over the full table plus a
// Commit — performs zero heap allocations, for all three load/distance
// evaluators. The fixture is deliberately small so forEachItem stays on
// its serial path; the sharded path pays a bounded goroutine fan-out
// cost by design, and TestShardedItemLoopMatchesSerial pins its output.
//
// testing.AllocsPerRun is exact under -race too (the race runtime does
// not add Go-visible allocations to these paths), so the guard holds in
// both CI modes.
func TestEvaluatorSteadyStateDoesNotAllocate(t *testing.T) {
	_, s := linePair(t)
	nl := 2
	ones := []float64{1, 1}

	items := []Item{
		{ID: 0, Flow: traffic.Flow{ID: 0, Src: 0, Dst: 2, Size: 0.3}, Dir: AtoB},
		{ID: 1, Flow: traffic.Flow{ID: 1, Src: 2, Dst: 0, Size: 0.2}, Dir: BtoA},
		{ID: 2, Flow: traffic.Flow{ID: 2, Src: 1, Dst: 1, Size: 0.1}, Dir: AtoB},
	}
	defaults := []int{2, 0, 1}

	evals := []struct {
		name string
		eval Evaluator
	}{
		{"distance", NewDistanceEvaluator(s, SideA, 10)},
		{"bandwidth", NewBandwidthEvaluator(s, SideA, 10, make([]float64, nl), ones)},
		{"fortz-thorup", NewFortzThorupEvaluator(s, SideA, 10, make([]float64, nl), ones)},
	}
	for _, e := range evals {
		t.Run(e.name, func(t *testing.T) {
			e.eval.Prefs(items, defaults) // warm the scratch buffers
			if n := testing.AllocsPerRun(100, func() {
				prefs := e.eval.Prefs(items, defaults)
				if len(prefs) != len(items) {
					t.Fatalf("%d pref rows for %d items", len(prefs), len(items))
				}
				e.eval.Commit(items[0], 1)
			}); n != 0 {
				t.Errorf("steady-state Prefs+Commit allocated %.1f times per run, want 0", n)
			}
		})
	}
}

// TestNegotiateAllocationsIndependentOfRounds pins the engine's sizing
// rule: the proposal index, the plan buffer and the transcript are sized
// once per Negotiate, so on a static table the allocation count does not
// depend on how many rounds the negotiation runs — serially or in
// batches. The same 64-item table — four trades A gains on, sixty it
// concedes a class on — is negotiated to the end (64 rounds) when A may
// run a deficit of 100 classes, and stops once A cannot gain more
// (4 rounds) when it may not.
func TestNegotiateAllocationsIndependentOfRounds(t *testing.T) {
	const n, na = 64, 3
	evA := &StaticEvaluator{NumAlts: na, Table: map[int][]int{}}
	evB := &StaticEvaluator{NumAlts: na, Table: map[int][]int{}}
	for i := 0; i < n; i++ {
		a, b := make([]int, na), make([]int, na)
		a[(i+1)%na], b[(i+1)%na] = -1, 5
		if i < 4 {
			a[(i+1)%na], b[(i+1)%na] = 2, 8
		}
		evA.Table[i], evB.Table[i] = a, b
	}
	items, defaults := unitItems(n, na)
	measure := func(cfg Config) (allocs float64, rounds int) {
		cfg.PrefBound = 10
		allocs = testing.AllocsPerRun(20, func() {
			res, err := Negotiate(cfg, evA, evB, items, defaults, na)
			if err != nil {
				t.Fatal(err)
			}
			rounds = res.Rounds
		})
		return allocs, rounds
	}
	all := func(batch []Proposal) int { return len(batch) }
	for _, hook := range []func([]Proposal) int{nil, all} {
		long, longRounds := measure(Config{ExtraDeficitA: 100, BatchAcceptHook: hook})
		short, shortRounds := measure(Config{BatchAcceptHook: hook})
		if shortRounds == 0 || longRounds < 4*shortRounds {
			t.Fatalf("fixture lost its spread: %d vs %d rounds", shortRounds, longRounds)
		}
		if long != short {
			t.Errorf("batched=%v: %d rounds allocated %.0f times, %d rounds %.0f times; want equal",
				hook != nil, longRounds, long, shortRounds, short)
		}
	}
}
