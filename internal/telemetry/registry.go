package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one key="value" dimension of a metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Registry holds named metrics and renders them. Registration (the
// CounterOf/GaugeOf/HistogramOf lookups) takes a lock and may allocate;
// callers hold on to the returned handles and write through them on the
// hot path, where no registry code runs at all.
//
// A (name, labels) pair identifies a metric: registering it twice
// returns the same handle (so a restarted component re-attaches to its
// series instead of panicking), and registering the same name as a
// different kind panics (a programming error worth failing loudly on).
type Registry struct {
	// base labels are appended to every metric of this registry — the
	// identity of the process/agent that owns it.
	base []Label

	mu      sync.Mutex
	entries map[string]*entry
	order   []*entry
}

type entry struct {
	name   string
	labels []Label
	key    string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

func (e *entry) kind() string {
	switch {
	case e.counter != nil:
		return "counter"
	case e.gauge != nil:
		return "gauge"
	default:
		return "histogram"
	}
}

// NewRegistry builds an empty registry. The base labels are attached to
// every metric it serves (e.g. agent="isp003").
func NewRegistry(base ...Label) *Registry {
	return &Registry{base: base, entries: make(map[string]*entry)}
}

// metricKey renders the canonical identity of (name, labels).
func metricKey(name string, labels []Label) string {
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range labels {
		sb.WriteByte('\x00')
		sb.WriteString(l.Key)
		sb.WriteByte('\x00')
		sb.WriteString(l.Value)
	}
	return sb.String()
}

func (r *Registry) lookup(name string, labels []Label) (*entry, string) {
	all := labels
	if len(r.base) > 0 {
		all = append(append([]Label(nil), r.base...), labels...)
	}
	key := metricKey(name, all)
	if e, ok := r.entries[key]; ok {
		return e, key
	}
	e := &entry{name: name, labels: all, key: key}
	r.entries[key] = e
	r.order = append(r.order, e)
	return e, key
}

// CounterOf returns the counter registered under (name, labels),
// creating it on first use.
func (r *Registry) CounterOf(name string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, _ := r.lookup(name, labels)
	if e.gauge != nil || e.hist != nil {
		panic(fmt.Sprintf("telemetry: %s already registered as a %s", name, e.kind()))
	}
	if e.counter == nil {
		e.counter = &Counter{}
	}
	return e.counter
}

// GaugeOf returns the gauge registered under (name, labels), creating
// it on first use.
func (r *Registry) GaugeOf(name string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, _ := r.lookup(name, labels)
	if e.counter != nil || e.hist != nil {
		panic(fmt.Sprintf("telemetry: %s already registered as a %s", name, e.kind()))
	}
	if e.gauge == nil {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// HistogramOf returns the histogram registered under (name, labels),
// creating it over DefaultLatencyBuckets on first use.
func (r *Registry) HistogramOf(name string, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, _ := r.lookup(name, labels)
	if e.counter != nil || e.gauge != nil {
		panic(fmt.Sprintf("telemetry: %s already registered as a %s", name, e.kind()))
	}
	if e.hist == nil {
		e.hist = NewHistogram(nil)
	}
	return e.hist
}

func (r *Registry) sortedEntries() []*entry {
	r.mu.Lock()
	entries := append([]*entry(nil), r.order...)
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return entries[i].key < entries[j].key
	})
	return entries
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (one # TYPE line per metric name, histogram
// buckets cumulative with an le label, _sum and _count series). The
// output is sorted and deterministic for fixed values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	entries := r.sortedEntries()
	lastType := ""
	for _, e := range entries {
		if e.name != lastType {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind()); err != nil {
				return err
			}
			lastType = e.name
		}
		switch {
		case e.counter != nil:
			if err := writeSample(w, e.name, e.labels, "", strconv.FormatInt(e.counter.Value(), 10)); err != nil {
				return err
			}
		case e.gauge != nil:
			if err := writeSample(w, e.name, e.labels, "", strconv.FormatInt(e.gauge.Value(), 10)); err != nil {
				return err
			}
		case e.hist != nil:
			s := e.hist.Snapshot()
			var cum int64
			for i, bound := range s.Bounds {
				cum += s.Counts[i]
				le := Label{Key: "le", Value: formatFloat(bound)}
				if err := writeSample(w, e.name, append(append([]Label(nil), e.labels...), le), "_bucket", strconv.FormatInt(cum, 10)); err != nil {
					return err
				}
			}
			cum += s.Counts[len(s.Bounds)]
			inf := Label{Key: "le", Value: "+Inf"}
			if err := writeSample(w, e.name, append(append([]Label(nil), e.labels...), inf), "_bucket", strconv.FormatInt(cum, 10)); err != nil {
				return err
			}
			if err := writeSample(w, e.name, e.labels, "_sum", formatFloat(s.Sum)); err != nil {
				return err
			}
			if err := writeSample(w, e.name, e.labels, "_count", strconv.FormatInt(s.Count, 10)); err != nil {
				return err
			}
		}
	}
	return nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSample(w io.Writer, name string, labels []Label, suffix, value string) error {
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteString(suffix)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l.Key)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(l.Value))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(value)
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
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
