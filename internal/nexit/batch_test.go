package nexit

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/traffic"
)

// TestBatchAcceptHookMatchesSerial pins the batched engine path's core
// guarantee: for any deterministic accept/veto predicate, running with
// BatchAcceptHook (whole runs of proposals decided at once, vetoes
// truncating the batch) produces a Result identical to the serial
// oracle's, which asks the same predicate one proposal at a time —
// assignments, gains, rounds, transcript, stop reason, everything.
func TestBatchAcceptHookMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		na := 2 + rng.Intn(4)
		n := 1 + rng.Intn(14)
		mkTable := func() map[int][]int {
			tbl := map[int][]int{}
			for i := 0; i < n; i++ {
				prefs := make([]int, na)
				for k := range prefs {
					prefs[k] = rng.Intn(21) - 10
				}
				prefs[i%na] = 0 // default class 0
				tbl[i] = prefs
			}
			return tbl
		}
		tblA, tblB := mkTable(), mkTable()
		items := make([]Item, n)
		defaults := make([]int, n)
		for i := 0; i < n; i++ {
			items[i] = Item{ID: i, Flow: traffic.Flow{ID: i, Size: 1 + rng.Float64()}}
			defaults[i] = i % na
		}
		// A deterministic veto predicate over the proposal fields both
		// paths present identically; every third trial accepts all.
		vetoes := trial%3 != 0
		veto := func(p Proposal) bool {
			return vetoes && (p.ItemID*31+p.Alt*7+p.Round)%5 == 0
		}
		base := Config{PrefBound: 10}
		if trial%4 == 1 {
			base.ReassignFraction = 0.2
		}

		serial := referenceNegotiate(base, func(_ Side, p Proposal) bool { return !veto(p) },
			&StaticEvaluator{NumAlts: na, Table: tblA}, &StaticEvaluator{NumAlts: na, Table: tblB}, items, defaults, na)

		batchCfg := base
		batchCfg.BatchAcceptHook = vetoing(veto)
		batched, err := Negotiate(batchCfg, &StaticEvaluator{NumAlts: na, Table: tblA},
			&StaticEvaluator{NumAlts: na, Table: tblB}, items, defaults, na)
		if err != nil {
			t.Fatalf("trial %d batched: %v", trial, err)
		}

		if !reflect.DeepEqual(serial, batched) {
			t.Fatalf("trial %d (reassign=%v vetoes=%v): batched result diverged\nserial:  %+v\nbatched: %+v",
				trial, base.ReassignFraction > 0, vetoes, serial, batched)
		}
	}
}

// TestBatchAcceptHookBatchShapes checks the batching itself (not just
// the outcome): with no vetoes and no reassignment the whole negotiation
// arrives in one batch.
func TestBatchAcceptHookBatchShapes(t *testing.T) {
	na, n := 3, 12
	tbl := map[int][]int{}
	for i := 0; i < n; i++ {
		prefs := make([]int, na)
		for k := range prefs {
			prefs[k] = (i*7+k*3)%5 + 1
		}
		prefs[i%na] = 0
		tbl[i] = prefs
	}
	items := make([]Item, n)
	defaults := make([]int, n)
	for i := 0; i < n; i++ {
		items[i] = Item{ID: i, Flow: traffic.Flow{ID: i, Size: 1}}
		defaults[i] = i % na
	}
	var sizes []int
	cfg := Config{PrefBound: 10, BatchAcceptHook: func(batch []Proposal) int {
		sizes = append(sizes, len(batch))
		return len(batch)
	}}
	ev := func() *StaticEvaluator { return &StaticEvaluator{NumAlts: na, Table: tbl} }
	if _, err := Negotiate(cfg, ev(), ev(), items, defaults, na); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 1 || sizes[0] != n {
		t.Fatalf("want one batch of %d, got %v", n, sizes)
	}
}
