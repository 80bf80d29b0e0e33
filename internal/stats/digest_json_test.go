package stats

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// The digest wire form must merge exactly like the live accumulators:
// serialize two shards, parse them back, merge, and the result is the
// whole-run digest — byte-identical wire form and summary line. This
// is the run-elsewhere / aggregate-here contract cmd/nexitplot uses.
func TestDigestJSONShardMergeEqualsWholeRun(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	whole := NewDigest()
	shardA, shardB := NewDigest(), NewDigest()
	samples := make([]float64, 0, 1501)
	for i := 0; i < 1501; i++ {
		x := rng.NormFloat64() * 7
		samples = append(samples, x)
		whole.Add(x)
		if i%3 == 0 {
			shardA.Add(x)
		} else {
			shardB.Add(x)
		}
	}

	// Round-trip each shard through its wire form, as a sharded run
	// would: emit on the worker, parse on the aggregator.
	parse := func(d *Digest) *Digest {
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		back := &Digest{}
		if err := json.Unmarshal(raw, back); err != nil {
			t.Fatal(err)
		}
		return back
	}
	merged := NewDigest()
	merged.Merge(parse(shardB)) // deliberately out of order
	merged.Merge(parse(shardA))

	if got, want := merged.StableSummary(), whole.StableSummary(); got != want {
		t.Fatalf("merged summary %q != whole-run %q", got, want)
	}
	// The sketches canonicalize on marshal, so the merged wire form is
	// byte-identical to the whole run's — the strongest parity we can pin.
	rawMerged, err := json.Marshal(merged.Sketch)
	if err != nil {
		t.Fatal(err)
	}
	rawWhole, err := json.Marshal(whole.Sketch)
	if err != nil {
		t.Fatal(err)
	}
	if string(rawMerged) != string(rawWhole) {
		t.Fatal("merged sketch wire form differs from whole-run sketch")
	}

	// And the stable line equals the batch CDF summary: sorted-order
	// sums on both sides.
	if got, want := whole.StableSummary(), Summary(NewCDF(samples)); got != want {
		t.Fatalf("stable summary %q != batch %q", got, want)
	}
}

func TestStreamJSONRoundTrip(t *testing.T) {
	var s Stream
	for _, x := range []float64{0.1, -3.75, 1e17, 2.000000000000004} {
		s.Add(x)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Stream
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip = %+v, want %+v", back, s)
	}
}

func TestSketchJSONRejectsCorrupt(t *testing.T) {
	var q QuantileSketch
	if err := json.Unmarshal([]byte(`{"cap":100,"n":5,"points":[[1,1]]}`), &q); err == nil {
		t.Fatal("weight/header mismatch accepted")
	}
}

// A digest whose stream and sketch disagree on the count, or whose
// sketch has a point of no weight, is refused with a labelled error
// instead of reaching a summary line that would panic on it.
func TestDigestJSONRejectsInconsistent(t *testing.T) {
	for _, raw := range []string{
		`{"stream":{"n":3,"sum":3,"min":1,"max":1},"sketch":{"cap":4096,"compactions":0,"n":0,"points":[]}}`,
		`{"stream":{"n":3,"sum":3,"min":1,"max":1}}`,
		`{"stream":{"n":1,"sum":1,"min":1,"max":1},"sketch":{"cap":4096,"n":1,"points":[[1,1],[2,0]]}}`,
		`{"stream":{"n":1,"sum":1,"min":1,"max":1},"sketch":{"cap":4096,"n":1,"points":[[1,2],[2,-1]]}}`,
		`{"stream":{"n":1,"sum":1,"min":1,"max":1},"sketch":{"cap":4096,"n":1,"points":[[1,0.5],[2,0.5]]}}`,
	} {
		var d Digest
		err := json.Unmarshal([]byte(raw), &d)
		if err == nil || !strings.Contains(err.Error(), "stats: ") {
			t.Errorf("%s: err = %v, want a labelled stats error", raw, err)
		}
	}
}

func TestDigestJSONNilSketch(t *testing.T) {
	var d Digest // zero value: no sketch until first Add
	raw, err := json.Marshal(&d)
	if err != nil {
		t.Fatal(err)
	}
	var back Digest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	back.Add(1) // must be usable immediately
	if back.Stream.N() != 1 || back.Sketch.N() != 1 {
		t.Fatalf("restored digest unusable: %+v", back)
	}
}

// StableSummary is order-independent where Summary is not guaranteed
// to be: feed the same samples in opposite orders.
func TestStableSummaryOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	samples := make([]float64, 700)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	fwd, rev := NewDigest(), NewDigest()
	for i := range samples {
		fwd.Add(samples[i])
		rev.Add(samples[len(samples)-1-i])
	}
	if fwd.StableSummary() != rev.StableSummary() {
		t.Fatalf("stable summary depends on insertion order: %q vs %q",
			fwd.StableSummary(), rev.StableSummary())
	}
}
