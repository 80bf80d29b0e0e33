package mesh

import (
	"fmt"

	"repro/internal/agentd"
	"repro/internal/telemetry"
)

// Progress is a mesh-wide rollup of per-agent status snapshots: the
// live answer to "how far along is the mesh, and how healthy is it".
// cmd/nexitplot's watch mode polls agent debug endpoints and folds the
// statuses through AggregateStatuses; batch runs get the same view
// from Result.Progress.
type Progress struct {
	// Agents counts the snapshots folded in.
	Agents int `json:"agents"`
	// Counter sums across all agents. Initiated and Served count the
	// same sessions from the two ends, so on a clean symmetric mesh
	// Initiated == Served.
	SessionsActive    int64 `json:"sessions_active"`
	SessionsInitiated int64 `json:"sessions_initiated"`
	SessionsServed    int64 `json:"sessions_served"`
	SessionsFailed    int64 `json:"sessions_failed"`
	// Resyncs counts epoch fast-forwards — how often the epoch-resync
	// handshake healed a pair (zero on a clean run) — and ReplayedEpochs
	// the epochs they replayed: with snapshots, bounded by the snapshot
	// interval per resync instead of growing with the mesh's lifetime.
	Resyncs        int64 `json:"resyncs"`
	ReplayedEpochs int64 `json:"replayed_epochs"`
	DialRetries    int64 `json:"dial_retries"`
	// SnapshotSaves and SnapshotRestores count snapshot activity (zero
	// without a state directory).
	SnapshotSaves    int64 `json:"snapshot_saves"`
	SnapshotRestores int64 `json:"snapshot_restores"`
	// Wire sums every agent's cumulative wire traffic.
	Wire agentd.WireStatus `json:"wire"`
	// Pairs counts initiator-side peer entries — each negotiating pair
	// exactly once.
	Pairs int `json:"pairs"`
	// EpochMin and EpochMax bound the epoch frontier over initiator
	// peers: the slowest and fastest pair's completed-epoch count. The
	// mesh is in lockstep when they are equal.
	EpochMin int `json:"epoch_min"`
	EpochMax int `json:"epoch_max"`
	// Latency merges every agent's per-peer session-latency histogram
	// (both sides of every pair share telemetry.DefaultLatencyBuckets,
	// so the snapshots always merge on an un-tampered mesh).
	Latency telemetry.HistogramSnapshot `json:"latency"`
}

// AggregateStatuses folds per-agent snapshots into the mesh-wide view.
// It errors only if latency histograms disagree on bucket bounds or
// carry counts that do not match them — impossible for agents built
// from this package, but watch mode feeds it snapshots from remote
// processes.
func AggregateStatuses(statuses []agentd.Status) (Progress, error) {
	var pr Progress
	pr.Agents = len(statuses)
	for _, st := range statuses {
		pr.SessionsActive += st.SessionsActive
		pr.SessionsInitiated += st.SessionsInitiated
		pr.SessionsServed += st.SessionsServed
		pr.SessionsFailed += st.SessionsFailed
		pr.Resyncs += st.Resyncs
		pr.ReplayedEpochs += st.ReplayedEpochs
		pr.DialRetries += st.DialRetries
		pr.SnapshotSaves += st.SnapshotSaves
		pr.SnapshotRestores += st.SnapshotRestores
		pr.Wire.FramesSent += st.Wire.FramesSent
		pr.Wire.FramesRecv += st.Wire.FramesRecv
		pr.Wire.BytesSent += st.Wire.BytesSent
		pr.Wire.BytesRecv += st.Wire.BytesRecv
		pr.Wire.HelloUs += st.Wire.HelloUs
		pr.Wire.PrefsUs += st.Wire.PrefsUs
		pr.Wire.ProposeUs += st.Wire.ProposeUs
		pr.Wire.CommitUs += st.Wire.CommitUs
		for _, p := range st.Peers {
			if p.Latency != nil {
				if err := pr.Latency.Merge(*p.Latency); err != nil {
					return Progress{}, fmt.Errorf("agent %s peer %s: %w", st.Name, p.Name, err)
				}
			}
			if !p.Initiator {
				continue
			}
			if pr.Pairs == 0 || p.Epochs < pr.EpochMin {
				pr.EpochMin = p.Epochs
			}
			if p.Epochs > pr.EpochMax {
				pr.EpochMax = p.Epochs
			}
			pr.Pairs++
		}
	}
	return pr, nil
}

// Progress rolls the run's final agent snapshots into the mesh-wide
// view. Serial runs carry no agent statuses, so the rollup is empty.
func (r *Result) Progress() (Progress, error) {
	return AggregateStatuses(r.Agents)
}
