package plot

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/agentd"
	"repro/internal/mesh"
	"repro/internal/telemetry"
)

// DecodeVars must pick the agentd statuses out of a /debug/vars
// document and leave the stock expvars (memstats, cmdline) and foreign
// entries alone.
func TestDecodeVars(t *testing.T) {
	lat := telemetry.NewHistogram(nil)
	lat.Observe(0.002)
	snap := lat.Snapshot()
	st := agentd.Status{
		Name:              "isp002",
		SessionsInitiated: 7,
		Peers:             []agentd.PeerStatus{{Name: "isp003", Initiator: true, Epochs: 4, Latency: &snap}},
	}
	st2 := st
	st2.Name = "isp001"
	doc := map[string]any{
		"cmdline":       []string{"nexitagent", "-isp", "2"},
		"memstats":      map[string]any{"Alloc": 12345, "Frees": 6},
		"agentd.isp002": st,
		"agentd.isp001": st2,
		"lookalike":     map[string]any{"name": "x"}, // no peers/sessions keys
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeVars(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "isp001" || got[1].Name != "isp002" {
		t.Fatalf("decoded %+v, want isp001 and isp002 in order", got)
	}
	if got[1].SessionsInitiated != 7 || got[1].Peers[0].Latency == nil || got[1].Peers[0].Latency.Count != 1 {
		t.Fatalf("status fields lost in transit: %+v", got[1])
	}

	if _, err := DecodeVars([]byte(`[]`)); err == nil {
		t.Fatal("a non-object document must error")
	}
}

// The progress line carries the frontier, the health counters, and the
// latency profile; the rate only when a previous poll exists.
func TestFormatProgressAndRate(t *testing.T) {
	lat := telemetry.NewHistogram(nil)
	lat.Observe(0.004)
	lat.Observe(0.004)

	pr := mesh.Progress{
		Agents: 3, Pairs: 2, EpochMin: 3, EpochMax: 4,
		SessionsInitiated: 8, SessionsFailed: 1, Resyncs: 2, DialRetries: 5,
		Latency: lat.Snapshot(),
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

	prev := mesh.Progress{Agents: 3, SessionsInitiated: 2}
	cur := mesh.Progress{Agents: 3, SessionsInitiated: 8}
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

// malformedVars is a /debug/vars document from two agents whose latency
// snapshots share bounds, but isp002's carries one count for three
// buckets, as a buggy or hostile peer might send.
const malformedVars = `{
	"agentd.isp001": {"name": "isp001", "sessions_initiated": 1, "peers": [
		{"name": "isp002", "initiator": true, "epochs": 1,
		 "latency": {"bounds": [1, 2], "counts": [1, 0, 0], "count": 1, "sum": 0.5}}]},
	"agentd.isp002": {"name": "isp002", "sessions_initiated": 0, "peers": [
		{"name": "isp001", "initiator": false, "epochs": 1,
		 "latency": {"bounds": [1, 2], "counts": [1], "count": 1, "sum": 0.5}}]}
}`

// A malformed latency snapshot from a peer is a labelled aggregation
// error, whichever side of the merge it lands on, never a panic.
func TestAggregateMalformedLatency(t *testing.T) {
	for _, doc := range []string{
		malformedVars,
		// The malformed snapshot first: the merge adopts it.
		strings.NewReplacer("isp001", "isp00X", "isp002", "isp001", "isp00X", "isp002").Replace(malformedVars),
	} {
		statuses, err := DecodeVars([]byte(doc))
		if err != nil || len(statuses) != 2 {
			t.Fatalf("DecodeVars: %d statuses, %v", len(statuses), err)
		}
		_, err = mesh.AggregateStatuses(statuses)
		if err == nil || !strings.Contains(err.Error(), "1 counts for 2 bounds") {
			t.Fatalf("AggregateStatuses error %v, want the malformed histogram named", err)
		}
	}
}

// FuzzDecodeVars feeds arbitrary /debug/vars documents through watch
// mode's whole path: decode, mesh-wide aggregation and the progress
// line must return or error, never panic.
func FuzzDecodeVars(f *testing.F) {
	f.Add([]byte(malformedVars))
	lat := telemetry.NewHistogram(nil)
	lat.Observe(0.003)
	snap := lat.Snapshot()
	good, err := json.Marshal(map[string]any{
		"cmdline": []string{"nexitagent"},
		"agentd.isp001": agentd.Status{Name: "isp001", SessionsInitiated: 3,
			Peers: []agentd.PeerStatus{{Name: "isp002", Initiator: true, Epochs: 2, Latency: &snap}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		statuses, err := DecodeVars(data)
		if err != nil {
			return
		}
		pr, err := mesh.AggregateStatuses(statuses)
		if err != nil {
			return
		}
		_ = FormatProgress(pr, SessionRate(pr, pr, 1))
	})
}
