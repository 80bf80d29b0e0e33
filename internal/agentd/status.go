package agentd

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// Status is the agent's introspection snapshot: the long-running
// process's answer to "what has this daemon been doing" (the paper's §6
// deployment concern, in the spirit of TerraServer's operations
// experience — make the persistent process observable). StatusJSON
// renders it for nexitagent's -debug-addr /status endpoint, which
// cmd/nexitplot's watch mode reads back and folds through
// mesh.AggregateStatuses.
type Status struct {
	Name string `json:"name"`
	Counters
	Peers []PeerStatus `json:"peers"`
}

// Counters are the agent-level totals of a Status. mesh.Progress embeds
// the same struct, so a mesh-wide rollup is the Add of its agents'.
type Counters struct {
	SessionsActive    int64 `json:"sessions_active"`
	SessionsInitiated int64 `json:"sessions_initiated"`
	SessionsServed    int64 `json:"sessions_served"`
	SessionsFailed    int64 `json:"sessions_failed"`
	// Resyncs counts epoch fast-forwards across all peers: each one is
	// a pair that healed itself after a failed session or a restart
	// (the epoch-resync handshake, DESIGN.md §7).
	Resyncs int64 `json:"resyncs"`
	// DialRetries counts outbound dial attempts beyond the first of
	// each ladder — the backoff pressure the agent is under.
	DialRetries int64 `json:"dial_retries"`
	// ReplayedEpochs counts epochs reconstructed by local replay across
	// all resyncs. With snapshots configured it measures only the tails
	// since the restored snapshots — the recovery cost snapshots are
	// there to cap (DESIGN.md §11).
	ReplayedEpochs int64 `json:"replayed_epochs"`
	// SnapshotSaves and SnapshotRestores count persisted and restored
	// controller snapshots (zero without a -state-dir).
	SnapshotSaves    int64      `json:"snapshot_saves"`
	SnapshotRestores int64      `json:"snapshot_restores"`
	Wire             WireStatus `json:"wire"`
}

// Add sums o into c, field by field.
func (c *Counters) Add(o Counters) {
	c.SessionsActive += o.SessionsActive
	c.SessionsInitiated += o.SessionsInitiated
	c.SessionsServed += o.SessionsServed
	c.SessionsFailed += o.SessionsFailed
	c.Resyncs += o.Resyncs
	c.DialRetries += o.DialRetries
	c.ReplayedEpochs += o.ReplayedEpochs
	c.SnapshotSaves += o.SnapshotSaves
	c.SnapshotRestores += o.SnapshotRestores
	w := &c.Wire
	w.FramesSent += o.Wire.FramesSent
	w.FramesRecv += o.Wire.FramesRecv
	w.BytesSent += o.Wire.BytesSent
	w.BytesRecv += o.Wire.BytesRecv
	w.HelloUs += o.Wire.HelloUs
	w.PrefsUs += o.Wire.PrefsUs
	w.ProposeUs += o.Wire.ProposeUs
	w.CommitUs += o.Wire.CommitUs
}

// WireStatus is the agent's cumulative wire traffic: frame and byte
// counts per direction and per-phase wire time, folded from every
// connection's nexitwire.WireStats after each session.
type WireStatus struct {
	FramesSent int64 `json:"frames_sent"`
	FramesRecv int64 `json:"frames_recv"`
	BytesSent  int64 `json:"bytes_sent"`
	BytesRecv  int64 `json:"bytes_recv"`
	// Phase times are cumulative microseconds of blocking wire time.
	HelloUs   int64 `json:"hello_us"`
	PrefsUs   int64 `json:"prefs_us"`
	ProposeUs int64 `json:"propose_us"`
	CommitUs  int64 `json:"commit_us"`
}

// PeerStatus is one neighbor's slice of the snapshot.
type PeerStatus struct {
	Name      string `json:"name"`
	Initiator bool   `json:"initiator"`
	// Metric is the pair's negotiation objective (the controller's
	// continuous.Metric, as carried in wire Hellos).
	Metric string `json:"metric"`
	// Epochs counts completed negotiation epochs with this peer.
	Epochs int `json:"epochs"`
	// Sessions and Failures count completed and failed wire sessions.
	Sessions int64 `json:"sessions"`
	Failures int64 `json:"failures"`
	// Resyncs counts this pair's epoch fast-forwards (local replays
	// that caught the controller up to its peer after a failure or
	// restart); ReplayedEpochs is how many epochs those fast-forwards
	// actually replayed — tail-only when snapshots are working.
	Resyncs        int64 `json:"resyncs"`
	ReplayedEpochs int64 `json:"replayed_epochs"`
	// SnapshotRestores counts how often this pair's controller resumed
	// from a persisted snapshot instead of replaying from scratch.
	SnapshotRestores int64 `json:"snapshot_restores"`
	// Rounds is the cumulative proposal-round count across sessions.
	Rounds int64 `json:"rounds"`
	// GainUs and GainPeer are the cumulative disclosed class gains,
	// ours and the neighbor's.
	GainUs   int64 `json:"gain_us"`
	GainPeer int64 `json:"gain_peer"`
	// LedgerBalance is the pair's current credit balance (positive:
	// side A is ahead).
	LedgerBalance int    `json:"ledger_balance"`
	LastStop      string `json:"last_stop,omitempty"`
	LastError     string `json:"last_error,omitempty"`
	// Latency is the peer's session-latency histogram
	// (agentd_session_seconds{peer=...}): mergeable across peers and
	// agents, shared bucket ladder (telemetry.DefaultLatencyBuckets).
	Latency *telemetry.HistogramSnapshot `json:"latency,omitempty"`
}

// Status snapshots the agent: the daemon's one read model, which
// StatusJSON and WriteMetrics render. Every count is kept once, where
// its event happens, and the agent totals are summed from the peers in
// the same pass that reads them, so each snapshot is one
// consistent cut — initiated plus served sessions equal the peers'
// latency counts, failures the peers' plus the refused Hellos, and so
// on. Safe to call concurrently with sessions: only the per-peer stats
// mutex is taken — never a session mutex, so a snapshot cannot hang
// behind a stalled peer's session.
func (a *Agent) Status() Status {
	st := Status{Name: a.cfg.Name, Counters: Counters{
		SessionsActive: a.sessionsActive.Value(),
		SessionsFailed: a.refused.Value(),
		DialRetries:    a.dialRetries.Value(),
		SnapshotSaves:  a.snapshotSaves.Value(),
	}}
	a.wireMu.Lock()
	st.Wire = a.wire
	a.wireMu.Unlock()
	for _, p := range a.peerList() {
		ps := p.status()
		if p.initiate {
			st.SessionsInitiated += ps.Sessions
		} else {
			st.SessionsServed += ps.Sessions
		}
		st.SessionsFailed += ps.Failures
		st.Resyncs += ps.Resyncs
		st.ReplayedEpochs += ps.ReplayedEpochs
		st.SnapshotRestores += ps.SnapshotRestores
		st.Peers = append(st.Peers, ps)
	}
	return st
}

// status snapshots one peer under its stats mutex.
func (p *peerState) status() PeerStatus {
	p.stats.Lock()
	defer p.stats.Unlock()
	lat := p.stats.lat.Snapshot()
	return PeerStatus{
		Name:             p.Name,
		Initiator:        p.initiate,
		Metric:           string(p.Ctl.Metric),
		Epochs:           p.stats.epochs,
		Sessions:         lat.Count,
		Failures:         p.stats.failures,
		Resyncs:          p.stats.resyncs,
		ReplayedEpochs:   p.stats.replayed,
		SnapshotRestores: p.stats.snapRestores,
		Rounds:           p.stats.rounds,
		GainUs:           p.stats.gainUs,
		GainPeer:         p.stats.gainPeer,
		LedgerBalance:    p.stats.ledger,
		LastStop:         p.stats.lastStop,
		LastError:        p.stats.lastErr,
		Latency:          &lat,
	}
}

// StatusJSON renders the snapshot as indented JSON.
func (a *Agent) StatusJSON() []byte {
	b, err := json.MarshalIndent(a.Status(), "", "  ")
	if err != nil {
		return []byte(`{"error":"status marshal failed"}`)
	}
	return b
}

// WriteMetrics renders one Status snapshot in the Prometheus text
// exposition format (the -debug-addr /metrics endpoint). Metrics come in
// name order, every sample labelled agent=<name>, the session-latency
// histogram once per peer in peer order.
func (a *Agent) WriteMetrics(w io.Writer) error {
	st := a.Status()
	agent := []telemetry.Label{{Key: "agent", Value: st.Name}}
	var b strings.Builder
	typ := func(name, kind string) { fmt.Fprintf(&b, "# TYPE %s %s\n", name, kind) }
	sample := func(name string, v int64, extra ...telemetry.Label) {
		telemetry.WriteSample(&b, name, append(agent[:1:1], extra...), strconv.FormatInt(v, 10))
	}
	count := func(name string, v int64) {
		typ(name, "counter")
		sample(name, v)
	}
	count("agentd_dial_retries_total", st.DialRetries)
	count("agentd_replayed_epochs_total", st.ReplayedEpochs)
	count("agentd_resyncs_total", st.Resyncs)
	if len(st.Peers) > 0 {
		typ("agentd_session_seconds", "histogram")
		for _, p := range st.Peers {
			peer := telemetry.Label{Key: "peer", Value: p.Name}
			telemetry.WriteHistogram(&b, "agentd_session_seconds", append(agent[:1:1], peer), *p.Latency)
		}
	}
	typ("agentd_sessions_active", "gauge")
	sample("agentd_sessions_active", st.SessionsActive)
	count("agentd_sessions_failed_total", st.SessionsFailed)
	count("agentd_sessions_initiated_total", st.SessionsInitiated)
	count("agentd_sessions_served_total", st.SessionsServed)
	count("agentd_snapshot_restores_total", st.SnapshotRestores)
	count("agentd_snapshot_saves_total", st.SnapshotSaves)
	dir := func(v string) telemetry.Label { return telemetry.Label{Key: "dir", Value: v} }
	typ("agentd_wire_bytes_total", "counter")
	sample("agentd_wire_bytes_total", st.Wire.BytesRecv, dir("recv"))
	sample("agentd_wire_bytes_total", st.Wire.BytesSent, dir("sent"))
	typ("agentd_wire_frames_total", "counter")
	sample("agentd_wire_frames_total", st.Wire.FramesRecv, dir("recv"))
	sample("agentd_wire_frames_total", st.Wire.FramesSent, dir("sent"))
	phase := func(v string) telemetry.Label { return telemetry.Label{Key: "phase", Value: v} }
	typ("agentd_wire_phase_microseconds_total", "counter")
	sample("agentd_wire_phase_microseconds_total", st.Wire.CommitUs, phase("commit"))
	sample("agentd_wire_phase_microseconds_total", st.Wire.HelloUs, phase("hello"))
	sample("agentd_wire_phase_microseconds_total", st.Wire.PrefsUs, phase("prefs"))
	sample("agentd_wire_phase_microseconds_total", st.Wire.ProposeUs, phase("propose"))
	_, err := io.WriteString(w, b.String())
	return err
}
