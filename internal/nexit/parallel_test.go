package nexit

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/pairsim"
	"repro/internal/traffic"
)

// TestShardedItemLoopMatchesSerial pins forEachItem's sharded path to its
// serial one: on a table above parallelEvalThreshold, every metric's
// RawDeltas and Prefs at GOMAXPROCS 4 equal those at GOMAXPROCS 1. The
// load evaluators start from random link loads so no row is trivial.
// Run it under -race: the shards share the evaluator.
func TestShardedItemLoopMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	s := pairsim.New(randomPair(rng), nil)
	na := s.NumAlternatives()
	items := make([]Item, parallelEvalThreshold/na+500)
	defaults := make([]int, len(items))
	for i := range items {
		it := Item{ID: i, Dir: Direction(rng.Intn(2))}
		src, dst := s.Pair.A, s.Pair.B
		if it.Dir == BtoA {
			src, dst = dst, src
		}
		it.Flow = traffic.Flow{ID: i, Src: rng.Intn(len(src.PoPs)), Dst: rng.Intn(len(dst.PoPs)), Size: rng.Float64()}
		items[i], defaults[i] = it, rng.Intn(na)
	}
	randomVec := func(n int, lo float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = lo + rng.Float64()*10
		}
		return v
	}
	type metricEvaluator interface {
		Evaluator
		RawDeltas([]Item, []int) [][]float64
	}
	nl := len(s.Pair.A.Links)
	evals := []struct {
		name string
		eval metricEvaluator
	}{
		{"distance", NewDistanceEvaluator(s, SideA, 10)},
		{"bandwidth", NewBandwidthEvaluator(s, SideA, 10, randomVec(nl, 0), randomVec(nl, 1))},
		{"fortz-thorup", NewFortzThorupEvaluator(s, SideA, 10, randomVec(nl, 0), randomVec(nl, 1))},
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(procs int, e metricEvaluator) ([][]float64, [][]int) {
		runtime.GOMAXPROCS(procs)
		var deltas [][]float64
		for _, row := range e.RawDeltas(items, defaults) {
			deltas = append(deltas, append([]float64(nil), row...))
		}
		var prefs [][]int
		for _, row := range e.Prefs(items, defaults) {
			prefs = append(prefs, append([]int(nil), row...))
		}
		return deltas, prefs
	}
	for _, e := range evals {
		serialD, serialP := run(1, e.eval)
		shardD, shardP := run(4, e.eval)
		if !reflect.DeepEqual(serialD, shardD) {
			t.Errorf("%s: RawDeltas at GOMAXPROCS 4 differ from GOMAXPROCS 1", e.name)
		}
		if !reflect.DeepEqual(serialP, shardP) {
			t.Errorf("%s: Prefs at GOMAXPROCS 4 differ from GOMAXPROCS 1", e.name)
		}
	}
}
