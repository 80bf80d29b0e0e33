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
	// Counters sums the agents' totals. Initiated and Served count the
	// same sessions from the two ends, so on a clean symmetric mesh
	// Initiated == Served; Resyncs counts how often the epoch-resync
	// handshake healed a pair (zero on a clean run), and ReplayedEpochs,
	// with snapshots, is bounded by the snapshot interval per resync
	// instead of growing with the mesh's lifetime.
	agentd.Counters
	// Pairs counts initiator-side peer entries — each negotiating pair
	// exactly once.
	Pairs int `json:"pairs"`
	// EpochMin and EpochMax bound the epoch frontier over initiator
	// peers: the slowest and fastest pair's completed-epoch count. The
	// mesh is in lockstep when they are equal.
	EpochMin int `json:"epoch_min"`
	EpochMax int `json:"epoch_max"`
	// Latency merges every agent's per-peer session-latency histogram
	// (every telemetry.Histogram uses the one latency ladder, so the
	// snapshots always merge on an un-tampered mesh).
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
		pr.Counters.Add(st.Counters)
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
