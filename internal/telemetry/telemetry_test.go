package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Add(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative Counter.Add did not panic")
			}
		}()
		c.Add(-1)
	}()
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100, math.NaN()} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []int64{2, 1, 1, 1} // <=1: {0.5, 1}; <=2: {1.5}; <=4: {3}; overflow: {100}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5 (NaN dropped)", s.Count)
	}
	if s.Sum != 0.5+1+1.5+3+100 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 50; i++ {
		h.Observe(0.5) // first bucket
	}
	for i := 0; i < 50; i++ {
		h.Observe(3) // third bucket
	}
	s := h.Snapshot()
	if q := s.Quantile(0.25); q != 1 {
		t.Fatalf("p25 = %v, want 1", q)
	}
	if q := s.Quantile(0.9); q != 4 {
		t.Fatalf("p90 = %v, want 4", q)
	}
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
}

func TestHistogramSnapshotMergeAndJSON(t *testing.T) {
	a := NewHistogram([]float64{1, 2})
	b := NewHistogram([]float64{1, 2})
	a.Observe(0.5)
	a.Observe(3)
	b.Observe(1.5)

	sa, sb := a.Snapshot(), b.Snapshot()
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
	c := NewHistogram([]float64{1, 3}).Snapshot()
	if err := sa.Merge(c); err == nil {
		t.Fatal("merge across different bounds did not error")
	}
}

func TestRegistryIdempotentAndKinds(t *testing.T) {
	r := NewRegistry(Label{"agent", "isp001"})
	c1 := r.CounterOf("sessions_total", Label{"peer", "isp002"})
	c2 := r.CounterOf("sessions_total", Label{"peer", "isp002"})
	if c1 != c2 {
		t.Fatal("same (name, labels) returned different counters")
	}
	if c3 := r.CounterOf("sessions_total", Label{"peer", "isp003"}); c3 == c1 {
		t.Fatal("different labels returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.GaugeOf("sessions_total", Label{"peer", "isp002"})
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry(Label{"agent", "isp001"})
	r.CounterOf("agentd_sessions_total").Add(3)
	r.GaugeOf("agentd_sessions_active").Add(1)
	h := r.HistogramOf("agentd_session_seconds", Label{"peer", "isp002"})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE agentd_sessions_total counter",
		`agentd_sessions_total{agent="isp001"} 3`,
		"# TYPE agentd_sessions_active gauge",
		`agentd_sessions_active{agent="isp001"} 1`,
		"# TYPE agentd_session_seconds histogram",
		`agentd_session_seconds_bucket{agent="isp001",peer="isp002",le="0.01"} 1`,
		`agentd_session_seconds_bucket{agent="isp001",peer="isp002",le="0.1"} 2`,
		`agentd_session_seconds_bucket{agent="isp001",peer="isp002",le="+Inf"} 3`,
		`agentd_session_seconds_sum{agent="isp001",peer="isp002"} 5.055`,
		`agentd_session_seconds_count{agent="isp001",peer="isp002"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotDeterministicOrder: the exposition lists metrics sorted by
// name, whatever order they were registered in.
func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.CounterOf("z_total")
	r.CounterOf("a_total")
	r.HistogramOf("m_seconds")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			order = append(order, f[2])
		}
	}
	if strings.Join(order, " ") != "a_total m_seconds z_total" {
		t.Fatalf("exposition order %v, want a_total m_seconds z_total:\n%s", order, sb.String())
	}
}

// TestConcurrentObserve drives writers against snapshot readers under
// -race: counters must be monotone between successive snapshots and the
// final state must account for every event.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.CounterOf("events_total")
	h := r.HistogramOf("lat_seconds")
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

// BenchmarkHotPath pins the allocation contract: Counter.Add and
// Histogram.Observe allocate nothing.
func BenchmarkHotPath(b *testing.B) {
	r := NewRegistry(Label{"agent", "bench"})
	c := r.CounterOf("events_total")
	h := r.HistogramOf("lat_seconds")
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
