package experiments_test

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/plot"
	"repro/internal/traffic"
)

// The runner's determinism contract: every experiment's folded result
// is byte-identical regardless of worker count, because each pair draws
// from its own (Seed, pair index)-derived RNG and records reach the sink
// in pair order. These tests pin that contract for the extras as
// nexitsim prints them: each stream is folded through plot's exact fold
// and the rendered extras section must not change between Workers=1 and
// Workers=8 (run them under -race to also exercise the concurrent
// TableCache); the records themselves are pinned in stream_test.go.

func parityDataset(t *testing.T) *experiments.Dataset {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 18
	ds, err := experiments.Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func parityOpts(workers int) experiments.Options {
	return experiments.Options{MaxPairs: 10, Seed: 5, Workers: workers}
}

// assertFoldParity renders the extras that run folds at Workers=1 and
// Workers=8 and requires both to hold section and be identical.
func assertFoldParity(t *testing.T, name, section string, run func(f *plot.Fold, workers int) error) {
	t.Helper()
	render := func(workers int) string {
		f := plot.NewFold(16)
		if err := run(f, workers); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := f.Render(&b, "extras"); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial, parallel := render(1), render(8)
	if !strings.Contains(serial, section) {
		t.Fatalf("%s: rendered extras lack %q:\n%s", name, section, serial)
	}
	if serial != parallel {
		t.Errorf("%s results differ between Workers=1 and Workers=8:\nserial:\n%s\nparallel:\n%s",
			name, serial, parallel)
	}
}

func TestScalabilityParity(t *testing.T) {
	ds := parityDataset(t)
	fractions := []float64{0.5, 1.0}
	assertFoldParity(t, "Scalability", "§6 scalability", func(f *plot.Fold, workers int) error {
		return experiments.ScalabilityStream(ds, parityOpts(workers), fractions, f.AddScalability)
	})
}

func TestStabilityParity(t *testing.T) {
	ds := parityDataset(t)
	assertFoldParity(t, "Stability", "cycles of influence", func(f *plot.Fold, workers int) error {
		_, err := experiments.StabilityStream(ds, experiments.BandwidthOptions{
			Options:     experiments.Options{MaxPairs: 3, Seed: 5, Workers: workers},
			Workload:    traffic.Gravity,
			MaxFailures: 9,
		}, f.AddStability)
		return err
	})
}

func TestDestinationParity(t *testing.T) {
	ds := parityDataset(t)
	assertFoldParity(t, "DestinationBased", "destination-based routing", func(f *plot.Fold, workers int) error {
		return experiments.DestinationStream(ds, experiments.Options{MaxPairs: 6, Seed: 5, Workers: workers}, f.AddDestination)
	})
}
