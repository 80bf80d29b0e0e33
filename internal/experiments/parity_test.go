package experiments

import (
	"reflect"
	"testing"

	"repro/internal/traffic"
)

// The runner's determinism contract: every experiment driver returns
// byte-identical results regardless of worker count, because each pair
// draws from its own (Seed, pair index)-derived RNG and results are
// reduced in pair order. These tests pin that contract for the drivers
// that fold their stream into a result (run them under -race to also
// exercise the concurrent TableCache); the streaming drivers' records
// are pinned in stream_test.go.

func parityOpts(workers int) Options {
	return Options{MaxPairs: 10, Seed: 5, Workers: workers}
}

func TestScalabilityParity(t *testing.T) {
	ds := smallDataset(t)
	fractions := []float64{0.5, 1.0}
	serial, err := Scalability(ds, parityOpts(1), fractions)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Scalability(ds, parityOpts(8), fractions)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Scalability results differ between Workers=1 and Workers=8:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

func TestStabilityParity(t *testing.T) {
	ds := smallDataset(t)
	run := func(workers int) *StabilityResult {
		res, err := Stability(ds, BandwidthOptions{
			Options:     Options{MaxPairs: 3, Seed: 5, Workers: workers},
			Workload:    traffic.Gravity,
			MaxFailures: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if !reflect.DeepEqual(run(1), run(8)) {
		t.Error("Stability results differ between Workers=1 and Workers=8")
	}
}

func TestDestinationParity(t *testing.T) {
	ds := smallDataset(t)
	run := func(workers int) *DestinationResult {
		res, err := DestinationBased(ds, Options{MaxPairs: 6, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if !reflect.DeepEqual(run(1), run(8)) {
		t.Error("DestinationBased results differ between Workers=1 and Workers=8")
	}
}
