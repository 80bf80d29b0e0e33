package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of a traced run: a call from the harness
// into a layer's public function (or a harness-side root that groups
// the calls of one pair, case or session). Times are nanoseconds since
// the tracer started; Parent indexes the enclosing span, -1 at the top.
type span struct {
	Name       string
	Start, End int64
	Parent     int
}

// tracer records spans in memory on one goroutine — traced passes run
// with Workers=1, so a stack of open spans gives every span its parent.
// Nothing is written until the run ends (write).
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
// A nil tracer records nothing, so code shared between traced and
// untraced passes brackets its calls unconditionally.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id: spans nest.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d (%s) closed out of order", id, t.spans[id].Name))
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// selfTimes returns each span's self time: its duration minus the part
// its direct children cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfByName sums self time per span name, in seconds.
func (t *tracer) selfByName() map[string]float64 {
	out := make(map[string]float64)
	for i, ns := range t.selfTimes() {
		out[t.spans[i].Name] += float64(ns) / 1e9
	}
	return out
}

// durations returns the durations of every span with the given name,
// in the given unit (e.g. time.Millisecond).
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// check verifies the nesting invariants the per-layer budget rests on:
// every span is closed, lies inside its parent, and has non-negative
// self time.
func (t *tracer) check() error {
	if len(t.open) != 0 {
		return fmt.Errorf("%d spans still open", len(t.open))
	}
	for i, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			if s.Parent >= i || s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("span %d (%s) not inside its parent %d (%s)", i, s.Name, s.Parent, p.Name)
			}
		}
	}
	for i, ns := range t.selfTimes() {
		if ns < 0 {
			return fmt.Errorf("span %d (%s) has negative self time", i, t.spans[i].Name)
		}
	}
	return nil
}

// write stores the spans as <dir>/<workload>.trace.json. Spans are
// rows of [name index, start ns, end ns, parent] over a names table: a
// full dist65 pass records several hundred thousand evaluator calls.
func (t *tracer) write(dir, workload string) error {
	index := make(map[string]int)
	var names []string
	rows := make([][4]int64, len(t.spans))
	for i, s := range t.spans {
		n, ok := index[s.Name]
		if !ok {
			n = len(names)
			index[s.Name] = n
			names = append(names, s.Name)
		}
		rows[i] = [4]int64{int64(n), s.Start, s.End, int64(s.Parent)}
	}
	data, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Columns  [4]string  `json:"columns"`
		Names    []string   `json:"names"`
		Spans    [][4]int64 `json:"spans"`
	}{workload, [4]string{"name", "start_ns", "end_ns", "parent"}, names, rows})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}
