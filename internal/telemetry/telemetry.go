// Package telemetry is the repo's small, allocation-conscious metrics
// core: atomic counters and gauges, fixed-bucket histograms with
// mergeable snapshots, and the helpers that render samples in the
// Prometheus text exposition format. It is the instrumentation substrate
// of the §6 deployment story — long-lived daemons (agentd) record into
// it, their status snapshots carry its histograms, and cmd/nexitplot's
// watch mode reads them back out — in the spirit of the fleet-operations
// literature (TerraServer, MSR-TR-2004-67): a persistent process that
// cannot be observed cannot be operated. The package keeps no names: a
// caller holds its cells and renders its own snapshot (agentd's
// WriteMetrics renders its Status).
//
// Design constraints, in order:
//
//   - Hot-path writes are wait-free and allocation-free: Counter.Inc,
//     Gauge.Add, and Histogram.Observe are a handful of atomic
//     operations on pre-allocated state.
//   - Reads never block writes. Snapshots load each cell atomically;
//     a snapshot taken mid-update may split one event between a bucket
//     and the total, but every cell is monotone, so two successive
//     snapshots never observe a counter moving backwards.
//   - Snapshots are mergeable and JSON-serializable, so per-peer and
//     per-agent views aggregate into mesh-wide ones (internal/mesh's
//     Progress) and travel in agentd's JSON status document.
package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// Counter is a monotone event counter: it only counts up, one event at
// a time, so snapshots never see it move backwards. The zero value is
// ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value (sessions in flight, queue depth).
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (negative deltas allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// latencyBuckets is the histogram bound ladder, in seconds: roughly
// exponential from 500µs to 10s, which brackets everything a wire
// session does — an in-memory mesh session runs low milliseconds, a TCP
// one tens of milliseconds, and anything beyond seconds is a stall
// about to hit the exchange deadline. Everything in a mesh must share
// one ladder or the per-peer snapshots stop merging, so every
// Histogram uses it.
var latencyBuckets = [...]float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into the latency ladder's buckets.
// Bucket i counts observations <= latencyBuckets[i] (and greater than
// the bound before it); one overflow bucket counts the rest. The ladder
// is fixed — there is no rebucketing, which is what makes snapshots
// from different processes mergeable and Observe a single atomic add
// after a short scan of a fixed array.
type Histogram struct {
	counts [len(latencyBuckets) + 1]atomic.Int64 // last is overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns an empty histogram over the latency ladder.
func NewHistogram() *Histogram { return new(Histogram) }

// Observe records one observation. NaN observations are dropped (they
// would poison the sum and fit no bucket).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(latencyBuckets) && v > latencyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Snapshot captures the histogram's current state. Cells are loaded
// atomically but not as one transaction: a concurrent Observe may land
// in the bucket array and not yet in Count (or vice versa), so
// Snapshot.Count and the bucket sum may differ transiently by in-flight
// observations — both only ever grow.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: latencyBuckets[:], // never written; shared
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, mergeable
// with snapshots taken over the same bounds and serializable to JSON
// (it is what travels in agentd's status surface).
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts[i] counts observations
	// in (Bounds[i-1], Bounds[i]], with Counts[len(Bounds)] the
	// overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Merge folds another snapshot into this one. Both must share bounds
// (or one side may be empty/zero, which adopts the other's bounds), and
// each must carry one count per bucket: snapshots decoded from another
// process are checked, not trusted.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) error {
	if len(o.Counts) == 0 {
		return nil
	}
	if err := o.checkShape("merged"); err != nil {
		return err
	}
	if len(s.Counts) == 0 {
		s.Bounds = o.Bounds
		s.Counts = append([]int64(nil), o.Counts...)
		s.Count = o.Count
		s.Sum = o.Sum
		return nil
	}
	if err := s.checkShape("receiving"); err != nil {
		return err
	}
	if len(s.Bounds) != len(o.Bounds) {
		return fmt.Errorf("telemetry: merging histograms with %d vs %d bounds", len(s.Bounds), len(o.Bounds))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return fmt.Errorf("telemetry: merging histograms with different bounds at %d", i)
		}
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	return nil
}

// checkShape reports a snapshot whose counts do not match its bounds;
// side names it in the error.
func (s *HistogramSnapshot) checkShape(side string) error {
	if len(s.Counts) != len(s.Bounds)+1 {
		return fmt.Errorf("telemetry: %s histogram has %d counts for %d bounds, want %d",
			side, len(s.Counts), len(s.Bounds), len(s.Bounds)+1)
	}
	return nil
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket
// counts: the upper bound of the bucket holding the target rank (the
// lowest bound for the first bucket, +Inf capped to the last bound for
// the overflow bucket). It is a bucket-resolution estimate, not an
// exact sample quantile; an empty snapshot returns 0.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1] // overflow: best we can say
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Label is one key="value" dimension of an exposition sample.
type Label struct {
	Key   string
	Value string
}

// WriteSample appends one sample line of the Prometheus text exposition
// format, name{labels} value, escaping the label values.
func WriteSample(b *strings.Builder, name string, labels []Label, value string) {
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Key)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// WriteHistogram appends a histogram snapshot's exposition samples:
// cumulative name_bucket lines with an le label per bound and +Inf,
// then name_sum and name_count.
func WriteHistogram(b *strings.Builder, name string, labels []Label, s HistogramSnapshot) {
	le := append(labels[:len(labels):len(labels)], Label{Key: "le"})
	var cum int64
	for i, c := range s.Counts {
		cum += c
		le[len(labels)].Value = "+Inf"
		if i < len(s.Bounds) {
			le[len(labels)].Value = formatFloat(s.Bounds[i])
		}
		WriteSample(b, name+"_bucket", le, strconv.FormatInt(cum, 10))
	}
	WriteSample(b, name+"_sum", labels, formatFloat(s.Sum))
	WriteSample(b, name+"_count", labels, strconv.FormatInt(s.Count, 10))
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
