package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestStreamMatchesCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := make([]float64, 999)
	var s Stream
	for i := range samples {
		samples[i] = rng.NormFloat64() * 10
		s.Add(samples[i])
	}
	c := NewCDF(samples)
	if s.N() != int64(c.N()) {
		t.Fatalf("N = %d, want %d", s.N(), c.N())
	}
	if math.Abs(s.Mean()-c.Mean()) > 1e-9 {
		t.Errorf("Mean = %v, want %v", s.Mean(), c.Mean())
	}
	if s.min != c.Quantile(0) || s.Max() != c.Max() {
		t.Errorf("Min/Max = %v/%v, want %v/%v", s.min, s.Max(), c.Quantile(0), c.Max())
	}
}

func TestStreamDropsNaN(t *testing.T) {
	var s Stream
	s.Add(1)
	s.Add(math.NaN())
	s.Add(-2)
	s.Add(3)
	if s.N() != 3 {
		t.Fatalf("N = %d, want 3 (NaN dropped)", s.N())
	}
	if s.min != -2 || s.Max() != 3 || s.Mean() != 2.0/3 {
		t.Errorf("Min/Max/Mean = %v/%v/%v, want -2/3/%v", s.min, s.Max(), s.Mean(), 2.0/3)
	}
}

// Below its capacity the sketch keeps every sample, so quantiles are
// exact — bit-identical to the batch CDF under the same convention.
func TestQuantileSketchExactBelowCap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 7, 100, 1001} {
		samples := make([]float64, n)
		sk := NewQuantileSketch(2000)
		for i := range samples {
			samples[i] = rng.Float64() * 100
			sk.Add(samples[i])
		}
		c := NewCDF(samples)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 1} {
			if got, want := sk.Quantile(q), c.Quantile(q); got != want {
				t.Fatalf("n=%d q=%v: sketch %v, CDF %v", n, q, got, want)
			}
		}
	}
}

// Past its capacity the sketch compacts; quantiles stay close in rank.
func TestQuantileSketchApproxAboveCap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 50000
	samples := make([]float64, n)
	sk := NewQuantileSketch(512)
	for i := range samples {
		samples[i] = rng.NormFloat64()
		sk.Add(samples[i])
	}
	c := NewCDF(samples)
	if sk.n != n {
		t.Fatalf("N = %d, want %d", sk.n, n)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		est := sk.Quantile(q)
		// Rank of the estimate in the true distribution must be within
		// a few percent of the requested rank.
		if rank := c.At(est); math.Abs(rank-q) > 0.05 {
			t.Errorf("q=%v: estimate %v has true rank %v", q, est, rank)
		}
	}
}

// A compacting sketch pairs only points of equal weight, so heavy ties
// cannot drag a quantile off its rank: on a curve shaped like Figure
// 6's per-flow gains (four in five samples exactly 0, a long tail, far
// past the default capacity) every reported quantile lies within 0.01
// of the requested rank.
func TestQuantileSketchTiesAboveCap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 60000
	samples := make([]float64, n)
	d := NewDigest()
	for i := range samples {
		if rng.Float64() >= 0.8 {
			samples[i] = rng.ExpFloat64() * 10
		}
		d.Add(samples[i])
	}
	if d.Sketch.compactions == 0 {
		t.Fatal("sketch never compacted; the test needs more samples than its capacity")
	}
	c := NewCDF(samples)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99} {
		est := d.Sketch.Quantile(q)
		// The estimate's ranks span [below, atOrBelow] when it is tied.
		below, atOrBelow := c.At(math.Nextafter(est, math.Inf(-1))), c.At(est)
		if atOrBelow < q-0.01 || below > q+0.01 {
			t.Errorf("q=%v: estimate %v has true ranks [%v, %v]", q, est, below, atOrBelow)
		}
	}
}

// The sketch is deterministic in the Add sequence.
func TestQuantileSketchDeterministic(t *testing.T) {
	feed := func(sk *QuantileSketch, seed int64, n int) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			sk.Add(rng.Float64())
		}
	}
	a1, a2 := NewQuantileSketch(256), NewQuantileSketch(256)
	feed(a1, 1, 10000)
	feed(a2, 1, 10000)
	if a1.Quantile(0.5) != a2.Quantile(0.5) || a1.Quantile(0.9) != a2.Quantile(0.9) {
		t.Error("identical Add sequences produced different sketches")
	}
}

// Querying a sketch mid-stream must not perturb its state: the
// canonical (value, weight) point order makes compaction pairing
// independent of when Quantile's internal sort runs.
func TestQuantileSketchQueryDoesNotPerturb(t *testing.T) {
	feed := func(quered bool) *QuantileSketch {
		sk := NewQuantileSketch(64)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 5000; i++ {
			// Coarse values force duplicates so unstable-sort order of
			// equal values would matter without the canonical tie-break.
			sk.Add(float64(rng.Intn(20)))
			if quered && i%37 == 0 {
				sk.Quantile(0.5)
			}
		}
		return sk
	}
	plain, queried := feed(false), feed(true)
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if a, b := plain.Quantile(q), queried.Quantile(q); a != b {
			t.Fatalf("q=%v: mid-stream queries changed the sketch (%v vs %v)", q, a, b)
		}
	}
}

func TestDigestSummaryMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	samples := make([]float64, 300)
	d := NewDigest()
	for i := range samples {
		samples[i] = rng.Float64() * 42
		d.Add(samples[i])
	}
	if got, want := d.Summary(), Summary(NewCDF(samples)); got != want {
		t.Errorf("digest summary %q != batch summary %q", got, want)
	}
	if (&Digest{Sketch: NewQuantileSketch(0)}).Summary() != "n=0" {
		t.Error("empty digest summary")
	}
}

// The zero value of Digest is usable, like Stream's.
func TestDigestZeroValue(t *testing.T) {
	var d Digest
	if d.Summary() != "n=0" {
		t.Errorf("zero-value summary = %q", d.Summary())
	}
	d.Add(2)
	d.Add(4)
	// Nearest-rank median of {2, 4} is 2 (CDF.Quantile convention).
	if d.Stream.N() != 2 || d.Sketch.Median() != 2 {
		t.Errorf("zero-value digest misbehaved: %s", d.Summary())
	}
}
