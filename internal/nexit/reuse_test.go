package nexit

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/pairsim"
	"repro/internal/traffic"
)

// reuseCase is one negotiation of the reuse sequence. mk returns the two
// evaluators; the engine and the oracle each call it, so stateful load
// evaluators start from the same loads on both.
type reuseCase struct {
	name     string
	cfg      Config
	hookSeed int64 // nonzero: a BatchAcceptHook accepting random prefixes, so batches end in vetoes
	mk       func() (evA, evB Evaluator)
	items    []Item
	defaults []int
	na       int
}

// check negotiates c on whatever state the engine's free list hands out
// and compares the whole Result with the oracle's.
func (c reuseCase) check() error {
	cfg := c.cfg
	if c.hookSeed != 0 {
		rng := rand.New(rand.NewSource(c.hookSeed))
		cfg.BatchAcceptHook = func(batch []Proposal) int { return rng.Intn(len(batch) + 1) }
	}
	engineCfg, accept := serialTwin(cfg)
	evA, evB := c.mk()
	got, err := Negotiate(engineCfg, evA, evB, c.items, c.defaults, c.na)
	if err != nil {
		return fmt.Errorf("%s: %v", c.name, err)
	}
	release(evA, evB) // the oracle's load evaluators then run on reused scratch
	evA, evB = c.mk()
	want := referenceNegotiate(engineCfg, accept, evA, evB, c.items, c.defaults, c.na)
	release(evA, evB)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: engine on a reused state diverged from the reference\nengine:    %+v\nreference: %+v",
			c.name, got, want)
	}
	return nil
}

// release hands back the scratch of the evaluators that have one.
func release(evs ...Evaluator) {
	for _, ev := range evs {
		if r, ok := ev.(interface{ Release() }); ok {
			r.Release()
		}
	}
}

// reuseCases returns negotiations whose shapes go large, small, large
// and whose bound P takes 1, 10 and 127, so a reused state meets both a
// bigger and a smaller predecessor under vetoes (batch hooks), extra
// deficit allowances, and preference reassignment over load evaluators.
func reuseCases() []reuseCase {
	rng := rand.New(rand.NewSource(31))
	static := func(name string, n, na int, cfg Config, hookSeed int64) reuseCase {
		mk := func() *StaticEvaluator {
			ev := &StaticEvaluator{NumAlts: na, Table: map[int][]int{}}
			for i := 0; i < n; i++ {
				row := make([]int, na)
				for k := range row {
					if k != i%na {
						row[k] = rng.Intn(2*cfg.PrefBound+5) - cfg.PrefBound - 2 // past ±P: clamped
					}
				}
				ev.Table[i] = row
			}
			return ev
		}
		evA, evB := mk(), mk() // stateless: engine and oracle share them
		items, defaults := unitItems(n, na)
		return reuseCase{name: name, cfg: cfg, hookSeed: hookSeed, na: na, items: items, defaults: defaults,
			mk: func() (Evaluator, Evaluator) { return evA, evB }}
	}
	load := func(name string, fortzThorup bool, cfg Config) reuseCase {
		s := pairsim.New(randomPair(rng), nil)
		ab := traffic.New(s.Pair.A, s.Pair.B, traffic.Gravity, nil)
		ba := traffic.New(s.Pair.B, s.Pair.A, traffic.Gravity, nil)
		items := Items(ab.Flows, ba.Flows)
		defaults := make([]int, len(items))
		rev := s.Reverse()
		for i, it := range items {
			if it.Dir == AtoB {
				defaults[i] = s.EarlyExit(it.Flow)
			} else {
				defaults[i] = rev.EarlyExit(it.Flow)
			}
		}
		mkSide := func(side Side) Evaluator {
			links := len(s.Up.ISP.Links)
			if side == SideB {
				links = len(s.Down.ISP.Links)
			}
			capv := make([]float64, links)
			for l := range capv {
				capv[l] = 2 + float64(l%3)
			}
			if fortzThorup {
				return NewFortzThorupEvaluator(s, side, cfg.PrefBound, make([]float64, links), capv)
			}
			return NewBandwidthEvaluator(s, side, cfg.PrefBound, make([]float64, links), capv)
		}
		return reuseCase{name: name, cfg: cfg, na: s.NumAlternatives(), items: items, defaults: defaults,
			mk: func() (Evaluator, Evaluator) { return mkSide(SideA), mkSide(SideB) }}
	}
	return []reuseCase{
		static("large/P127/hook", 400, 6,
			Config{PrefBound: 127}, 1),
		static("small/P1", 3, 2,
			Config{PrefBound: 1}, 0),
		static("large/P10/deficits/hook", 300, 5,
			Config{PrefBound: 10, ExtraDeficitA: 7, ExtraDeficitB: 2}, 2),
		load("bandwidth/P10/reassign", false,
			Config{PrefBound: 10, ReassignFraction: 0.05}),
		static("small/P127", 1, 1,
			Config{PrefBound: 127}, 0),
		static("large/P1/reassign/hook", 500, 4,
			Config{PrefBound: 1, ReassignFraction: 0.25}, 3),
		load("fortz-thorup/P127/reassign", true,
			Config{PrefBound: 127, ReassignFraction: 0.1}),
		static("small/P10/deficits/hook", 7, 3,
			Config{PrefBound: 10, ExtraDeficitB: 5}, 4),
		static("large/P10/deficits", 450, 3,
			Config{PrefBound: 10, ExtraDeficitA: 12}, 0),
	}
}

// TestNegotiateReusedStateMatchesFresh holds Negotiate to the oracle
// when every negotiation runs on a state the previous one left behind:
// a field that a reused state does not reset (vetoes, histograms,
// occupancy, the tally, the traffic total) shows up as a diverging
// Result. The concurrent half runs the same cases on GOMAXPROCS
// goroutines (at least two), each starting at another case, so states
// and scratches move between goroutines of different shapes; under
// -race it also checks that the hand-over is synchronized.
func TestNegotiateReusedStateMatchesFresh(t *testing.T) {
	cases := reuseCases()
	t.Run("serial", func(t *testing.T) {
		for round := 0; round < 2; round++ {
			for _, c := range cases {
				if err := c.check(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		workers := max(runtime.GOMAXPROCS(0), 2)
		errs := make(chan error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range 2 * len(cases) {
					if err := cases[(i+w)%len(cases)].check(); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// fixedPrefs discloses one table without allocating: row i for item i.
// It serves only negotiations without reassignment, whose one Prefs
// call sees every item.
type fixedPrefs [][]int

func (f fixedPrefs) Prefs(items []Item, _ []int) [][]int {
	if len(items) != len(f) {
		panic("fixedPrefs: asked for a partial table")
	}
	return f
}

func (fixedPrefs) Commit(Item, int) {}

// TestWarmNegotiateAllocatesOnlyItsResult pins the engine's free list: a
// Negotiate on a warm state allocates the Result, its Assign and the
// transcript copy, and nothing else, whether it asks one proposal at a
// time, in batches, or vetoes, and whether it stops early or runs to the
// end of the table.
func TestWarmNegotiateAllocatesOnlyItsResult(t *testing.T) {
	const n, na = 64, 3
	a, b := make(fixedPrefs, n), make(fixedPrefs, n)
	for i := range a {
		a[i], b[i] = make([]int, na), make([]int, na)
		a[i][(i+1)%na], b[i][(i+1)%na] = -1, 5
		if i < 8 {
			a[i][(i+1)%na] = 3
		}
	}
	var evA, evB Evaluator = a, b
	items, defaults := unitItems(n, na)
	all := func(batch []Proposal) int { return len(batch) }
	veto := vetoing(func(p Proposal) bool { return p.ItemID%5 == 0 })
	for _, cfg := range []Config{
		{PrefBound: 10},
		{PrefBound: 10, BatchAcceptHook: all},
		{PrefBound: 10, BatchAcceptHook: veto},
		{PrefBound: 10, ExtraDeficitA: 100},
	} {
		var res *Result
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			if res, err = Negotiate(cfg, evA, evB, items, defaults, na); err != nil {
				t.Fatal(err)
			}
		})
		if res.Rounds == 0 {
			t.Fatalf("%+v: no rounds; the fixture lost its trades", cfg)
		}
		if allocs > 3 {
			t.Errorf("%+v: a warm Negotiate allocated %.1f times, want at most 3 (Result, Assign, Transcript)", cfg, allocs)
		}
	}
}

// TestReleasedEvaluatorScratchIsReused pins the evaluators' free list:
// once an evaluator is released, the next one of the same shape gets its
// scratch, so its first Prefs allocates nothing beyond what building it
// costs; and an evaluator used after Release panics with a labelled
// message instead of reading another evaluator's rows.
func TestReleasedEvaluatorScratchIsReused(t *testing.T) {
	_, s := linePair(t)
	ones := []float64{1, 1}
	items := []Item{
		{ID: 0, Flow: traffic.Flow{ID: 0, Src: 0, Dst: 2, Size: 0.3}, Dir: AtoB},
		{ID: 1, Flow: traffic.Flow{ID: 1, Src: 2, Dst: 0, Size: 0.2}, Dir: BtoA},
	}
	defaults := []int{2, 0}
	type evaluatorWithRelease interface {
		Evaluator
		Release()
	}
	builds := []struct {
		name string
		mk   func() evaluatorWithRelease
	}{
		{"distance", func() evaluatorWithRelease { return NewDistanceEvaluator(s, SideA, 10) }},
		{"bandwidth", func() evaluatorWithRelease { return NewBandwidthEvaluator(s, SideA, 10, make([]float64, 2), ones) }},
		{"fortz-thorup", func() evaluatorWithRelease { return NewFortzThorupEvaluator(s, SideA, 10, make([]float64, 2), ones) }},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			// Start from an empty free list, so the one scratch in
			// circulation is the one the measured evaluators share.
			for len(scratches) > 0 {
				<-scratches
			}
			build := testing.AllocsPerRun(50, func() { b.mk().Release() })
			buildAndPrefs := testing.AllocsPerRun(50, func() {
				e := b.mk()
				e.Prefs(items, defaults)
				e.Release()
			})
			if buildAndPrefs != build {
				t.Errorf("build+Prefs+Release allocated %.1f times, build+Release %.1f; want Prefs on reused scratch to allocate nothing",
					buildAndPrefs, build)
			}

			e := b.mk()
			e.Release()
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "after Release") {
					t.Errorf("Prefs after Release: recovered %q, want a panic naming Release", msg)
				}
			}()
			e.Prefs(items, defaults)
		})
	}
}
