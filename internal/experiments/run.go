package experiments

import (
	"errors"
	"math/rand"

	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Per-experiment seed salts keep the RNG streams of different drivers
// decorrelated when they run with the same Options.Seed. They mirror
// the seed offsets the serial drivers used historically.
const (
	saltDistance    = 1
	saltBandwidth   = 2
	saltStability   = 3
	saltCheat       = 4
	saltDestination = 5
	saltScalability = 6
)

// runnerOptions builds the runner configuration for one experiment
// phase; salt decorrelates its per-pair RNG stream from other phases.
func (o Options) runnerOptions(salt int64) runner.Options {
	return runner.Options{Workers: o.Workers, Seed: o.Seed + salt}
}

// pairLabel is the self-describing identity streamed records carry:
// NDJSON consumers join a record back to its ISP pair by name rather
// than by stream position (delivery indices are dense over delivered
// records — degenerate pairs are skipped — so position is not a key).
func pairLabel(p *topology.Pair) string {
	return p.A.Name + "-" + p.B.Name
}

// pairJob is the prepared state handed to a distance-family per-pair
// function: the pair's System/workload/defaults, the default
// assignment's distances (degenerate zero-distance pairs are filtered
// before the function runs), and the pair's private RNG.
type pairJob struct {
	ps                   *pairSetup
	defTotal, defA, defB float64
	rng                  *rand.Rand
}

// forEachPair evaluates fn over the pairs on the concurrent runner,
// hoisting the setup every distance-family driver shares: build the
// pair setup with the given flow-size model, compute the default
// distances, and skip degenerate co-located pairs (zero default
// distance). fn may also skip a pair by returning nil. Non-nil results
// stream to sink strictly in pair order and are not retained: steady-
// state memory is O(workers), not O(pairs). sink's idx counts delivered
// results (dense, starting at 0); returning runner.ErrStop cancels the
// remaining pairs without error, any other error aborts the run.
func forEachPair[R any](pairs []*topology.Pair, ds *Dataset, opt Options, salt int64, model traffic.Model,
	fn func(job pairJob) (*R, error), sink func(idx int, r *R) error) error {
	delivered := 0
	return runner.ForEachPair(pairs, opt.runnerOptions(salt),
		func(i int, pair *topology.Pair, rng *rand.Rand) (*R, error) {
			ps := newPairSetupWithModel(pair, ds.Cache, model)
			defTotal, defA, defB := ps.distances(ps.defaults)
			if defTotal == 0 {
				return nil, nil // degenerate co-located pair
			}
			return fn(pairJob{ps: ps, defTotal: defTotal, defA: defA, defB: defB, rng: rng})
		},
		func(i int, r *R) error {
			if r == nil {
				return nil
			}
			err := sink(delivered, r)
			delivered++
			return err
		})
}

// failureOut is one failure case's outcome: the result, or the error
// fn produced for it. Errors travel to the reducer instead of aborting
// the pair so that an error in a case beyond the MaxFailures cap never
// fails a run whose capped result is already complete.
type failureOut[R any] struct {
	res R
	err error
}

// forEachFailureCase evaluates fn over every (pair, failed
// interconnection) case of the bandwidth-family experiments on the
// concurrent runner. Cases of one pair are evaluated in interconnection
// order by the pair's worker (sharing the pair's RNG), streamed to sink
// strictly in (pair, interconnection) order, and capped at
// opt.MaxFailures via early stop. The only retained state is one pair's
// cases in flight per worker — O(workers x interconnections), never
// O(total cases). sink's idx is the running case count; returning
// runner.ErrStop cancels the remaining cases without error. Returns the
// number of cases delivered.
func forEachFailureCase[R any](ds *Dataset, opt BandwidthOptions, salt int64,
	fn func(fc *failureCase, rng *rand.Rand) (R, error), sink func(idx int, r R) error) (int, error) {
	pairs := selectPairs(ds.BandwidthPairs(), opt.Options)
	cases := 0
	err := runner.ForEachPair(pairs, opt.runnerOptions(salt),
		func(i int, pair *topology.Pair, rng *rand.Rand) ([]failureOut[R], error) {
			var out []failureOut[R]
			for k := 0; k < pair.NumInterconnections(); k++ {
				// One pair alone can never contribute more reduced
				// cases than the cap, so stop evaluating beyond it.
				if opt.MaxFailures > 0 && len(out) >= opt.MaxFailures {
					break
				}
				fc := buildFailureCase(pair, ds.Cache, k, opt.Workload, opt.Capacity, rng)
				if fc == nil {
					continue
				}
				r, err := fn(fc, rng)
				out = append(out, failureOut[R]{res: r, err: err})
				if err != nil {
					break // later cases of this pair would not have run serially either
				}
			}
			return out, nil
		},
		func(i int, rs []failureOut[R]) error {
			for _, r := range rs {
				if opt.MaxFailures > 0 && cases >= opt.MaxFailures {
					return runner.ErrStop
				}
				if r.err != nil {
					return r.err
				}
				if err := sink(cases, r.res); err != nil {
					if !errors.Is(err, runner.ErrStop) {
						return err
					}
					cases++
					return runner.ErrStop
				}
				cases++
			}
			return nil
		})
	return cases, err
}
