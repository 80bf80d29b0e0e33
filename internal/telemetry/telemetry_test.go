package telemetry

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Add(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	for i := 1; i < len(latencyBuckets); i++ {
		if latencyBuckets[i] <= latencyBuckets[i-1] {
			t.Fatalf("latency ladder not ascending at %d: %v", i, latencyBuckets)
		}
	}
	h := NewHistogram()
	obs := []float64{0.0004, 0.0005, 0.0007, 0.002, 100}
	for _, v := range append(obs, math.NaN()) {
		h.Observe(v)
	}
	s := h.Snapshot()
	// <=0.0005: {0.0004, 0.0005}; <=0.001: {0.0007}; <=0.0025: {0.002};
	// overflow: {100}.
	want := make([]int64, len(latencyBuckets)+1)
	want[0], want[1], want[2], want[len(latencyBuckets)] = 2, 1, 1, 1
	if len(s.Counts) != len(want) {
		t.Fatalf("%d buckets, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5 (NaN dropped)", s.Count)
	}
	var sum float64
	for _, v := range obs {
		sum += v
	}
	if s.Sum != sum {
		t.Fatalf("sum = %v, want %v", s.Sum, sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 50; i++ {
		h.Observe(0.0004) // first bucket
	}
	for i := 0; i < 50; i++ {
		h.Observe(0.002) // third bucket
	}
	s := h.Snapshot()
	if q := s.Quantile(0.25); q != 0.0005 {
		t.Fatalf("p25 = %v, want 0.0005", q)
	}
	if q := s.Quantile(0.9); q != 0.0025 {
		t.Fatalf("p90 = %v, want 0.0025", q)
	}
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestHistogramSnapshotMergeAndJSON(t *testing.T) {
	// Snapshots decoded from another process may carry any ladder, so
	// the merge cases build them directly.
	sa := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []int64{1, 0, 1}, Count: 2, Sum: 3.5}
	sb := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []int64{0, 1, 0}, Count: 1, Sum: 1.5}
	if err := sa.Merge(sb); err != nil {
		t.Fatal(err)
	}
	if sa.Count != 3 || sa.Counts[0] != 1 || sa.Counts[1] != 1 || sa.Counts[2] != 1 {
		t.Fatalf("merged = %+v", sa)
	}

	// JSON round trip (the shape that travels in agentd status).
	raw, err := json.Marshal(sa)
	if err != nil {
		t.Fatal(err)
	}
	var back HistogramSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != sa.Count || back.Sum != sa.Sum || len(back.Counts) != len(sa.Counts) {
		t.Fatalf("round trip = %+v, want %+v", back, sa)
	}

	// Merging into an empty snapshot adopts the other side.
	var empty HistogramSnapshot
	if err := empty.Merge(sa); err != nil {
		t.Fatal(err)
	}
	if empty.Count != sa.Count {
		t.Fatalf("empty merge count = %d, want %d", empty.Count, sa.Count)
	}

	// Mismatched bounds refuse to merge.
	c := HistogramSnapshot{Bounds: []float64{1, 3}, Counts: []int64{0, 0, 0}}
	if err := sa.Merge(c); err == nil {
		t.Fatal("merge across different bounds did not error")
	}
}

// TestWriteSampleEscapes: label values are escaped per the exposition
// format (backslash, quote, newline), names and keys are written as given.
func TestWriteSampleEscapes(t *testing.T) {
	var b strings.Builder
	WriteSample(&b, "m_total", []Label{{"agent", `a\"b` + "\nc"}, {"dir", "sent"}}, "7")
	if got, want := b.String(), `m_total{agent="a\\\"b\nc",dir="sent"} 7`+"\n"; got != want {
		t.Fatalf("sample %q, want %q", got, want)
	}
}

// TestWritePrometheus: counter, gauge and histogram samples render in
// the exposition format — labels in the order given, cumulative buckets
// with an le label per bound and +Inf, then _sum and _count.
func TestWritePrometheus(t *testing.T) {
	agent := []Label{{"agent", "isp001"}}
	var c Counter
	for i := 0; i < 3; i++ {
		c.Inc()
	}
	var g Gauge
	g.Add(1)
	h := NewHistogram()
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	WriteSample(&sb, "agentd_sessions_total", agent, strconv.FormatInt(c.Value(), 10))
	WriteSample(&sb, "agentd_sessions_active", agent, strconv.FormatInt(g.Value(), 10))
	WriteHistogram(&sb, "agentd_session_seconds", append(agent, Label{"peer", "isp002"}), h.Snapshot())
	out := sb.String()
	for _, want := range []string{
		`agentd_sessions_total{agent="isp001"} 3`,
		`agentd_sessions_active{agent="isp001"} 1`,
		`agentd_session_seconds_bucket{agent="isp001",peer="isp002",le="0.0025"} 0`,
		`agentd_session_seconds_bucket{agent="isp001",peer="isp002",le="0.005"} 1`,
		`agentd_session_seconds_bucket{agent="isp001",peer="isp002",le="0.01"} 1`,
		`agentd_session_seconds_bucket{agent="isp001",peer="isp002",le="0.1"} 2`,
		`agentd_session_seconds_bucket{agent="isp001",peer="isp002",le="5"} 3`,
		`agentd_session_seconds_bucket{agent="isp001",peer="isp002",le="+Inf"} 3`,
		`agentd_session_seconds_sum{agent="isp001",peer="isp002"} 5.055`,
		`agentd_session_seconds_count{agent="isp001",peer="isp002"} 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "agentd_session_seconds_bucket{"); n != len(latencyBuckets)+1 {
		t.Fatalf("%d bucket lines, want %d:\n%s", n, len(latencyBuckets)+1, out)
	}
}

// TestSnapshotDeterministicOrder: a histogram's exposition lists its
// buckets in ascending bound order ending at +Inf, then _sum and _count,
// and is byte-identical whatever order the observations arrived in.
func TestSnapshotDeterministicOrder(t *testing.T) {
	obs := []float64{3, 0.5, 100, 1.5, 0.25}
	render := func(order []float64) string {
		h := NewHistogram()
		for _, v := range order {
			h.Observe(v)
		}
		var sb strings.Builder
		WriteHistogram(&sb, "m_seconds", nil, h.Snapshot())
		return sb.String()
	}
	got := render(obs)
	want := "m_seconds_bucket{le=\"0.0005\"} 0\n" +
		"m_seconds_bucket{le=\"0.001\"} 0\n" +
		"m_seconds_bucket{le=\"0.0025\"} 0\n" +
		"m_seconds_bucket{le=\"0.005\"} 0\n" +
		"m_seconds_bucket{le=\"0.01\"} 0\n" +
		"m_seconds_bucket{le=\"0.025\"} 0\n" +
		"m_seconds_bucket{le=\"0.05\"} 0\n" +
		"m_seconds_bucket{le=\"0.1\"} 0\n" +
		"m_seconds_bucket{le=\"0.25\"} 1\n" +
		"m_seconds_bucket{le=\"0.5\"} 2\n" +
		"m_seconds_bucket{le=\"1\"} 2\n" +
		"m_seconds_bucket{le=\"2.5\"} 3\n" +
		"m_seconds_bucket{le=\"5\"} 4\n" +
		"m_seconds_bucket{le=\"10\"} 4\n" +
		"m_seconds_bucket{le=\"+Inf\"} 5\n" +
		"m_seconds_sum 105.25\n" +
		"m_seconds_count 5\n"
	if got != want {
		t.Fatalf("exposition\n%s\nwant\n%s", got, want)
	}
	reversed := make([]float64, len(obs))
	for i, v := range obs {
		reversed[len(obs)-1-i] = v
	}
	if again := render(reversed); again != got {
		t.Fatalf("exposition depends on observation order:\n%s\nvs\n%s", again, got)
	}
}

// TestConcurrentObserve drives writers against snapshot readers under
// -race: counters must be monotone between successive snapshots and the
// final state must account for every event.
func TestConcurrentObserve(t *testing.T) {
	var c Counter
	h := NewHistogram()
	const writers, events = 4, 1000

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // snapshot reader: monotone counters, no torn reads
		defer close(readerDone)
		var lastC, lastH int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := c.Value(); v < lastC {
				t.Errorf("counter went backwards: %d -> %d", lastC, v)
				return
			} else {
				lastC = v
			}
			s := h.Snapshot()
			if s.Count < lastH {
				t.Errorf("histogram count went backwards: %d -> %d", lastH, s.Count)
				return
			}
			lastH = s.Count
			var bucketSum int64
			for _, n := range s.Counts {
				bucketSum += n
			}
			if bucketSum < 0 || bucketSum > writers*events {
				t.Errorf("bucket sum %d out of range", bucketSum)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < events; i++ {
				c.Inc()
				h.Observe(float64(i%100) / 1000)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone

	if got := c.Value(); got != writers*events {
		t.Fatalf("counter = %d, want %d", got, writers*events)
	}
	s := h.Snapshot()
	if s.Count != writers*events {
		t.Fatalf("histogram count = %d, want %d", s.Count, writers*events)
	}
	var bucketSum int64
	for _, n := range s.Counts {
		bucketSum += n
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d at quiescence", bucketSum, s.Count)
	}
}

// BenchmarkHotPath pins the allocation contract: Counter.Inc and
// Histogram.Observe allocate nothing.
func BenchmarkHotPath(b *testing.B) {
	var c Counter
	h := NewHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(0.003)
	}
	if testing.AllocsPerRun(100, func() { c.Inc(); h.Observe(0.003) }) != 0 {
		b.Fatal("hot path allocates")
	}
}
