package experiments

import (
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/runner"
	"repro/internal/stability"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// The streaming pipeline's contract (DESIGN.md §8): every driver's
// streamed records are identical pair-by-pair for every worker count
// (serial == parallel), and the stream retains nothing — steady-state
// memory is O(workers), not O(pairs).

// streamRecords collects a streaming driver's records via a generic
// sink, checking the idx sequence is dense and ordered and that the
// stream delivered something.
func streamRecords[R any](t *testing.T, stream func(sink func(int, *R) error) error) []*R {
	t.Helper()
	var out []*R
	err := stream(func(idx int, r *R) error {
		if idx != len(out) {
			t.Fatalf("sink saw idx %d, want %d (order broken)", idx, len(out))
		}
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no records streamed")
	}
	return out
}

func distanceRecords(t *testing.T, ds *Dataset, opt Options) []*DistancePairResult {
	t.Helper()
	return streamRecords(t, func(sink func(int, *DistancePairResult) error) error {
		return DistanceStream(ds, opt, sink)
	})
}

func cheatRecords(t *testing.T, ds *Dataset, opt Options) []*CheatPairResult {
	t.Helper()
	return streamRecords(t, func(sink func(int, *CheatPairResult) error) error {
		return DistanceCheatStream(ds, opt, sink)
	})
}

func bandwidthRecords(t *testing.T, ds *Dataset, opt BandwidthOptions) []*BandwidthCaseResult {
	t.Helper()
	return streamRecords(t, func(sink func(int, *BandwidthCaseResult) error) error {
		_, err := BandwidthStream(ds, opt, sink)
		return err
	})
}

// column is one value per record.
func column[R any](rs []*R, value func(*R) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = value(r)
	}
	return xs
}

// median is the nearest-rank median, rank ⌈n/2⌉ of n.
func median(xs []float64) float64 { return stats.NewCDF(xs).Median() }

// upperMedian is the sample at rank ⌊n/2⌋+1 of n, the median the
// preference-range ablation reports.
func upperMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// outcomeCounts tallies the reactive dynamics' fates; an outcome other
// than converged or oscillated counts as exhausted.
func outcomeCounts(cases []*StabilityCaseResult) (converged, oscillated, exhausted int) {
	for _, c := range cases {
		switch c.Outcome {
		case stability.Converged:
			converged++
		case stability.Oscillated:
			oscillated++
		default:
			exhausted++
		}
	}
	return converged, oscillated, exhausted
}

// assertStreamParity pins records identical between the serial path
// and one contended parallel run; one pairing keeps the -race bill
// bounded.
func assertStreamParity[R any](t *testing.T, name string, run func(workers int) []*R) {
	t.Helper()
	serial := run(1)
	parallel := run(8)
	if len(parallel) != len(serial) {
		t.Fatalf("%s: workers=8 streamed %d records, serial %d", name, len(parallel), len(serial))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("%s: workers=8 record %d differs:\nserial:   %+v\nparallel: %+v",
				name, i, serial[i], parallel[i])
		}
	}
}

func TestDistanceStreamParity(t *testing.T) {
	ds := smallDataset(t)
	assertStreamParity(t, "Distance", func(workers int) []*DistancePairResult {
		return distanceRecords(t, ds, Options{MaxPairs: 8, Seed: 5, Workers: workers})
	})
}

func TestDistanceCheatStreamParity(t *testing.T) {
	ds := smallDataset(t)
	assertStreamParity(t, "DistanceCheat", func(workers int) []*CheatPairResult {
		return cheatRecords(t, ds, Options{MaxPairs: 6, Seed: 5, Workers: workers})
	})
}

func TestBandwidthStreamParity(t *testing.T) {
	ds := smallDataset(t)
	assertStreamParity(t, "Bandwidth", func(workers int) []*BandwidthCaseResult {
		return bandwidthRecords(t, ds, BandwidthOptions{
			Options:     Options{MaxPairs: 3, Seed: 5, Workers: workers},
			Workload:    traffic.Gravity,
			MaxFailures: 9,
		})
	})
}

func TestAblationStreamParity(t *testing.T) {
	ds := smallDataset(t)
	assertStreamParity(t, "Ablation", func(workers int) []*AblationPairResult {
		opt := Options{MaxPairs: 6, Seed: 5, Workers: workers}
		return streamRecords(t, func(sink func(int, *AblationPairResult) error) error {
			return AblationStream(ds, opt, []int{1, 10}, sink)
		})
	})
}

func TestDestinationStreamParity(t *testing.T) {
	ds := smallDataset(t)
	assertStreamParity(t, "DestinationBased", func(workers int) []*DestinationPairResult {
		opt := Options{MaxPairs: 5, Seed: 5, Workers: workers}
		return streamRecords(t, func(sink func(int, *DestinationPairResult) error) error {
			return DestinationStream(ds, opt, sink)
		})
	})
}

func TestScalabilityStreamParity(t *testing.T) {
	ds := smallDataset(t)
	fractions := []float64{0.5, 1.0}
	assertStreamParity(t, "Scalability", func(workers int) []*ScalabilityPairResult {
		opt := Options{MaxPairs: 8, Seed: 5, Workers: workers}
		return streamRecords(t, func(sink func(int, *ScalabilityPairResult) error) error {
			return ScalabilityStream(ds, opt, fractions, sink)
		})
	})
}

func TestStabilityStreamParity(t *testing.T) {
	ds := smallDataset(t)
	assertStreamParity(t, "Stability", func(workers int) []*StabilityCaseResult {
		opt := BandwidthOptions{
			Options:     Options{MaxPairs: 2, Seed: 5, Workers: workers},
			Workload:    traffic.Gravity,
			MaxFailures: 6,
		}
		return streamRecords(t, func(sink func(int, *StabilityCaseResult) error) error {
			_, err := StabilityStream(ds, opt, sink)
			return err
		})
	})
}

// A sink returning runner.ErrStop cancels the stream cleanly.
func TestStreamEarlyStop(t *testing.T) {
	ds := smallDataset(t)
	got := 0
	err := DistanceStream(ds, Options{MaxPairs: 10, Seed: 5, Workers: 4},
		func(idx int, r *DistancePairResult) error {
			got++
			if got == 3 {
				return runner.ErrStop
			}
			return nil
		})
	if err != nil {
		t.Fatalf("ErrStop surfaced as an error: %v", err)
	}
	if got != 3 {
		t.Fatalf("sink saw %d records after stopping at 3", got)
	}

	cases, err := BandwidthStream(ds, BandwidthOptions{
		Options:  Options{MaxPairs: 4, Seed: 5, Workers: 4},
		Workload: traffic.Gravity,
	}, func(idx int, r *BandwidthCaseResult) error {
		if idx == 4 {
			return runner.ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ErrStop surfaced as an error: %v", err)
	}
	if cases != 5 {
		t.Fatalf("delivered %d cases, want 5 (stop after idx 4)", cases)
	}
}

// BenchmarkScalabilityStream measures the Scalability driver on the
// streaming path with a constant-memory digest sink. ReportAllocs
// tracks that allocation per op stays flat: the stream allocates
// per-pair scratch that dies young, never an O(pairs) result.
func BenchmarkScalabilityStream(b *testing.B) {
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 18
	ds, err := Load(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ds.Warm(0)
	opt := Options{MaxPairs: 10, Seed: 5}
	fractions := []float64{0.5, 1.0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digest := stats.NewDigest()
		err := ScalabilityStream(ds, opt, fractions, func(_ int, r *ScalabilityPairResult) error {
			digest.Add(r.GainShares[0])
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if digest.Stream.N() == 0 {
			b.Fatal("stream delivered nothing")
		}
	}
}

// TestScalabilityStreamConstantMemory pins the streaming pipeline's
// memory contract: records streamed through a constant-memory sink
// become garbage almost immediately — retention is O(workers), not
// O(pairs). Each record gets a finalizer; after the run, (almost) every
// record must be collectable. A pipeline that secretly retained results
// (the pre-streaming materialize-then-reduce idiom) keeps all of them
// live and fails this test.
func TestScalabilityStreamConstantMemory(t *testing.T) {
	ds := smallDataset(t)
	ds.Warm(0)

	var streamed, finalized atomic.Int64
	digest := stats.NewDigest()
	err := ScalabilityStream(ds, Options{MaxPairs: 16, Seed: 5, Workers: 4}, []float64{0.5, 1.0},
		func(idx int, r *ScalabilityPairResult) error {
			streamed.Add(1)
			runtime.SetFinalizer(r, func(*ScalabilityPairResult) { finalized.Add(1) })
			digest.Add(r.GainShares[1]) // constant-memory aggregation
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	total := streamed.Load()
	if total < 10 {
		t.Fatalf("only %d records streamed; dataset too small for the retention check", total)
	}

	// Allow a small constant number of records to linger (the last few
	// can be pinned by the final GC cycle); O(pairs) retention keeps all
	// of them and trips the bound.
	const slack = 4
	deadline := time.Now().Add(10 * time.Second)
	for finalized.Load() < total-slack && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := finalized.Load(); got < total-slack {
		t.Fatalf("only %d of %d streamed records were collectable; results are being retained", got, total)
	}
	if digest.Stream.N() != total {
		t.Fatalf("digest folded %d samples, want %d", digest.Stream.N(), total)
	}
}
