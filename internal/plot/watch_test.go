package plot

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/agentd"
	"repro/internal/mesh"
	"repro/internal/telemetry"
)

// The progress line carries the frontier, the health counters, and the
// latency profile; the rate only when a previous poll exists.
func TestFormatProgressAndRate(t *testing.T) {
	lat := telemetry.NewHistogram()
	lat.Observe(0.004)
	lat.Observe(0.004)

	pr := mesh.Progress{
		Agents: 3, Pairs: 2, EpochMin: 3, EpochMax: 4,
		Counters: agentd.Counters{SessionsInitiated: 8, SessionsFailed: 1, Resyncs: 2, DialRetries: 5},
		Latency:  lat.Snapshot(),
	}
	line := FormatProgress(pr, -1)
	for _, want := range []string{"agents=3", "pairs=2", "epochs=3..4", "sessions=8", "failed=1", "resyncs=2", "retries=5", "p50=", "p90="} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q missing %q", line, want)
		}
	}
	if strings.Contains(line, "rate=") {
		t.Errorf("first poll must not claim a rate: %q", line)
	}
	pr.EpochMax = 3
	if line := FormatProgress(pr, 4); !strings.Contains(line, "epochs=3 ") || !strings.Contains(line, "rate=4.0/s") {
		t.Errorf("lockstep line wrong: %q", line)
	}

	prev := mesh.Progress{Agents: 3, Counters: agentd.Counters{SessionsInitiated: 2}}
	cur := mesh.Progress{Agents: 3, Counters: agentd.Counters{SessionsInitiated: 8}}
	if r := SessionRate(prev, cur, 2); r != 3 {
		t.Errorf("rate = %v, want 3", r)
	}
	if r := SessionRate(mesh.Progress{}, cur, 2); r != -1 {
		t.Errorf("first-poll rate = %v, want -1", r)
	}
	if r := SessionRate(cur, prev, 2); r != -1 {
		t.Errorf("counter-reset rate = %v, want -1", r)
	}
}

// malformedStatuses are the /status documents of two agents whose
// latency snapshots share bounds, but isp002's carries one count for
// three buckets, as a buggy or hostile peer might send.
var malformedStatuses = [2]string{
	`{"name": "isp001", "sessions_initiated": 1, "peers": [
		{"name": "isp002", "initiator": true, "epochs": 1,
		 "latency": {"bounds": [1, 2], "counts": [1, 0, 0], "count": 1, "sum": 0.5}}]}`,
	`{"name": "isp002", "sessions_initiated": 0, "peers": [
		{"name": "isp001", "initiator": false, "epochs": 1,
		 "latency": {"bounds": [1, 2], "counts": [1], "count": 1, "sum": 0.5}}]}`,
}

// watchStatuses is watch mode's decode step: one agentd.Status per
// /status body, a body that does not unmarshal skipped.
func watchStatuses(bodies ...[]byte) []agentd.Status {
	var out []agentd.Status
	for _, body := range bodies {
		var st agentd.Status
		if json.Unmarshal(body, &st) == nil {
			out = append(out, st)
		}
	}
	return out
}

// A malformed latency snapshot from a peer is a labelled aggregation
// error, whichever side of the merge it lands on, never a panic.
func TestAggregateMalformedLatency(t *testing.T) {
	good, bad := []byte(malformedStatuses[0]), []byte(malformedStatuses[1])
	for _, bodies := range [][][]byte{
		{good, bad},
		// The malformed snapshot first: the merge adopts it.
		{bad, good},
	} {
		statuses := watchStatuses(bodies...)
		if len(statuses) != 2 {
			t.Fatalf("decoded %d statuses, want 2", len(statuses))
		}
		_, err := mesh.AggregateStatuses(statuses)
		if err == nil || !strings.Contains(err.Error(), "1 counts for 2 bounds") {
			t.Fatalf("AggregateStatuses error %v, want the malformed histogram named", err)
		}
	}
}

// FuzzWatchStatus feeds two arbitrary /status bodies through watch
// mode's whole path: decode, mesh-wide aggregation and the progress
// line must return or error, never panic.
func FuzzWatchStatus(f *testing.F) {
	f.Add([]byte(malformedStatuses[0]), []byte(malformedStatuses[1]))
	f.Add([]byte(malformedStatuses[1]), []byte(malformedStatuses[0]))
	lat := telemetry.NewHistogram()
	lat.Observe(0.003)
	snap := lat.Snapshot()
	st := agentd.Status{Name: "isp001", Counters: agentd.Counters{SessionsInitiated: 3, Wire: agentd.WireStatus{PrefsUs: 9}},
		Peers: []agentd.PeerStatus{{Name: "isp002", Initiator: true, Epochs: 2, Latency: &snap}}}
	good, err := json.Marshal(st)
	if err != nil {
		f.Fatal(err)
	}
	if got := watchStatuses(good); len(got) != 1 || !reflect.DeepEqual(got[0], st) {
		f.Fatalf("status lost in transit: %+v, want %+v", got, st)
	}
	f.Add(good, []byte(`{}`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		pr, err := mesh.AggregateStatuses(watchStatuses(a, b))
		if err != nil {
			return
		}
		_ = FormatProgress(pr, SessionRate(pr, pr, 1))
	})
}
