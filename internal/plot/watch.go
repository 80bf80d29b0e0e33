package plot

import (
	"fmt"
	"strings"

	"repro/internal/mesh"
)

// FormatProgress renders one watch-mode line from a mesh-wide rollup:
// the frontier, the health counters, and the latency profile. rate is
// completed sessions per second since the previous poll (negative:
// unknown, first poll).
func FormatProgress(pr mesh.Progress, rate float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "agents=%d pairs=%d epochs=%d", pr.Agents, pr.Pairs, pr.EpochMin)
	if pr.EpochMax != pr.EpochMin {
		fmt.Fprintf(&b, "..%d", pr.EpochMax)
	}
	fmt.Fprintf(&b, " sessions=%d active=%d failed=%d resyncs=%d retries=%d",
		pr.SessionsInitiated, pr.SessionsActive, pr.SessionsFailed, pr.Resyncs, pr.DialRetries)
	if rate >= 0 {
		fmt.Fprintf(&b, " rate=%.1f/s", rate)
	}
	if pr.Latency.Count > 0 {
		fmt.Fprintf(&b, " p50=%.1fms p90=%.1fms",
			1000*pr.Latency.Quantile(0.5), 1000*pr.Latency.Quantile(0.9))
	}
	return b.String()
}

// SessionRate differences two rollups taken dt seconds apart into a
// sessions-per-second figure (initiated side, so each pair session
// counts once). Returns -1 when the window is degenerate.
func SessionRate(prev, cur mesh.Progress, dtSeconds float64) float64 {
	if dtSeconds <= 0 || prev.Agents == 0 {
		return -1
	}
	d := cur.SessionsInitiated - prev.SessionsInitiated
	if d < 0 { // an agent restarted and its counters reset
		return -1
	}
	return float64(d) / dtSeconds
}
