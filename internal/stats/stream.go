package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// This file holds the online accumulators behind the digest summary
// lines of an NDJSON stream: Stream, QuantileSketch and Digest. The
// benchmark's NDJSON sink is now their only caller, and it hashes their
// summary lines and wire form into its output checksum, so Add, Summary
// and MarshalJSON must not move a byte; they are retired together with
// that sink (ROADMAP item 1). Both types are deterministic: the state
// after a fixed sequence of Add calls depends on that sequence alone.

// Stream accumulates count, mean, min, and max online. The zero value
// is an empty accumulator ready for use.
type Stream struct {
	n        int64
	sum      float64
	min, max float64
}

// Add folds one sample in. NaNs are dropped, mirroring NewCDF.
func (s *Stream) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if s.n == 0 || x < s.min {
		s.min = x
	}
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.n++
	s.sum += x
}

// N returns the number of samples folded in.
func (s *Stream) N() int64 { return s.n }

// Mean returns the arithmetic mean (0 when empty, like CDF.Mean).
func (s *Stream) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Max returns the largest sample; it panics when empty.
func (s *Stream) Max() float64 {
	if s.n == 0 {
		panic("stats: Max of empty Stream")
	}
	return s.max
}

// streamJSON is the wire form of a Stream. encoding/json writes the
// shortest float64 representation, so the wire form carries the state
// exactly.
type streamJSON struct {
	N   int64   `json:"n"`
	Sum float64 `json:"sum"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// MarshalJSON serializes the accumulator.
func (s Stream) MarshalJSON() ([]byte, error) {
	return json.Marshal(streamJSON{N: s.n, Sum: s.sum, Min: s.min, Max: s.max})
}

// sketchCap is the default point capacity of a QuantileSketch: exact
// quantiles up to this many samples, ~64 KiB of points beyond it.
const sketchCap = 4096

// wpoint is one weighted point of a sketch: v stands for w original
// samples at or near v.
type wpoint struct {
	v float64
	w float64
}

// QuantileSketch estimates quantiles from a stream in bounded memory.
// Up to its capacity it simply keeps every sample, so quantiles are
// EXACT (matching CDF.Quantile's nearest-rank convention); past the
// capacity it compacts by weight level, as MRL and KLL sketches do:
// the level holding the most points — all of one weight — is sorted
// and its adjacent pairs collapse into one point of doubled weight,
// alternating deterministically between keeping the lower and the
// upper member. Points of unequal weight never pair, so one
// compaction at weight w moves any rank by at most w.
//
// The zero value is unusable; construct with NewQuantileSketch.
type QuantileSketch struct {
	cap         int
	points      []wpoint
	compactions int
	n           int64 // samples represented (sum of weights)
}

// NewQuantileSketch returns a sketch holding at most capacity points
// (0 selects the default, 4096).
func NewQuantileSketch(capacity int) *QuantileSketch {
	if capacity <= 0 {
		capacity = sketchCap
	}
	if capacity < 8 {
		capacity = 8
	}
	return &QuantileSketch{cap: capacity, points: make([]wpoint, 0, capacity+1)}
}

// Add folds one sample in. NaNs are dropped, mirroring NewCDF.
func (q *QuantileSketch) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	q.points = append(q.points, wpoint{v: x, w: 1})
	q.n++
	q.shrink()
}

// shrink compacts until the points fit the capacity, or until no level
// holds two points.
func (q *QuantileSketch) shrink() {
	for len(q.points) > q.cap && q.compact() {
	}
}

// sortPoints orders the points canonically by (value, weight, sign of
// zero). The order matters: sorting happens in Quantile and
// MarshalJSON, and with a total order equal points are
// interchangeable, so the state is well-defined regardless of when
// queries happen.
func (q *QuantileSketch) sortPoints() {
	sort.Slice(q.points, func(i, j int) bool { return q.points[i].less(q.points[j]) })
}

func (a wpoint) less(b wpoint) bool {
	if a.v != b.v {
		return a.v < b.v
	}
	if a.w != b.w {
		return a.w < b.w
	}
	return math.Signbit(a.v) && !math.Signbit(b.v)
}

// compact halves the fullest weight level (the lightest on a tie):
// that level's points, sorted canonically, collapse pairwise into
// points of twice the weight, keeping the lower or the upper value as
// a counter alternates. An odd level keeps its top point as it is.
// The result depends only on the point multiset and the counter, so
// the sketch stays deterministic in its Add sequence. It reports
// false, changing nothing, when no level holds two points.
func (q *QuantileSketch) compact() bool {
	type level struct {
		w float64
		n int
	}
	var levels []level // few: weights are powers of two
	for _, p := range q.points {
		i := 0
		for i < len(levels) && levels[i].w != p.w {
			i++
		}
		if i == len(levels) {
			levels = append(levels, level{w: p.w})
		}
		levels[i].n++
	}
	full := level{}
	for _, l := range levels {
		if l.n > full.n || (l.n == full.n && l.w < full.w) {
			full = l
		}
	}
	if full.n < 2 {
		return false
	}

	// Move the level to the tail, sort it, pair it up in place.
	rest := 0
	for i, p := range q.points {
		if p.w != full.w {
			q.points[rest], q.points[i] = p, q.points[rest]
			rest++
		}
	}
	lvl := q.points[rest:]
	sort.Slice(lvl, func(i, j int) bool { return lvl[i].less(lvl[j]) })
	keepUpper := q.compactions%2 == 1
	out := rest
	for i := 0; i+1 < len(lvl); i += 2 {
		p := lvl[i]
		if keepUpper {
			p.v = lvl[i+1].v
		}
		p.w *= 2
		q.points[out] = p
		out++
	}
	if len(lvl)%2 == 1 {
		q.points[out] = lvl[len(lvl)-1]
		out++
	}
	q.points = q.points[:out]
	q.compactions++
	return true
}

// Quantile returns the estimated q-quantile (exact while no compaction
// has happened), using the same nearest-rank convention as
// CDF.Quantile. It panics on an empty sketch or out-of-range qq.
func (q *QuantileSketch) Quantile(qq float64) float64 {
	if q.n == 0 {
		panic("stats: quantile of empty QuantileSketch")
	}
	if qq < 0 || qq > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of range", qq))
	}
	q.sortPoints()
	target := qq * float64(q.n)
	var cum float64
	for _, p := range q.points {
		cum += p.w
		if cum >= target {
			return p.v
		}
	}
	return q.points[len(q.points)-1].v
}

// Median returns the 0.5 quantile.
func (q *QuantileSketch) Median() float64 { return q.Quantile(0.5) }

// sketchJSON is the wire form of a QuantileSketch: the full point set
// (canonically sorted, so equal states serialize equally) plus the
// compaction counter.
type sketchJSON struct {
	Cap         int          `json:"cap"`
	Compactions int          `json:"compactions"`
	N           int64        `json:"n"`
	Points      [][2]float64 `json:"points"`
}

// MarshalJSON serializes the sketch. The receiver is a pointer because
// serialization canonicalizes point order first.
func (q *QuantileSketch) MarshalJSON() ([]byte, error) {
	q.sortPoints()
	pts := make([][2]float64, len(q.points))
	for i, p := range q.points {
		pts[i] = [2]float64{p.v, p.w}
	}
	return json.Marshal(sketchJSON{Cap: q.cap, Compactions: q.compactions, N: q.n, Points: pts})
}

// Digest couples a Stream with a QuantileSketch: the constant-memory
// stand-in for a retained sample slice, summarizable like a CDF. The
// zero value is an empty digest ready for use (the sketch is created
// with the default capacity on first Add).
type Digest struct {
	Stream Stream
	Sketch *QuantileSketch
}

// NewDigest returns an empty digest with the default sketch capacity.
func NewDigest() *Digest {
	return &Digest{Sketch: NewQuantileSketch(0)}
}

// Add folds one sample in.
func (d *Digest) Add(x float64) {
	if d.Sketch == nil {
		d.Sketch = NewQuantileSketch(0)
	}
	d.Stream.Add(x)
	d.Sketch.Add(x)
}

// Summary returns the one-line digest in the same format as
// Summary(CDF): n, mean, median, p90, max. While the sketch has not
// compacted, the quantiles are exact and the line matches the batch
// one up to floating-point rounding of the mean (the stream sums in
// insertion order, the CDF over sorted samples).
func (d *Digest) Summary() string {
	if d.Stream.N() == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.3f median=%.3f p90=%.3f max=%.3f",
		d.Stream.N(), d.Stream.Mean(), d.Sketch.Median(), d.Sketch.Quantile(0.9), d.Stream.Max())
}

// digestJSON is the wire form of a Digest: the digest summary line's
// machine-readable carrier.
type digestJSON struct {
	Stream Stream          `json:"stream"`
	Sketch *QuantileSketch `json:"sketch,omitempty"`
}

// MarshalJSON serializes the digest.
func (d *Digest) MarshalJSON() ([]byte, error) {
	return json.Marshal(digestJSON{Stream: d.Stream, Sketch: d.Sketch})
}
