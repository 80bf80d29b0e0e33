package experiments

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/traffic"
)

func TestStabilityExperiment(t *testing.T) {
	ds := smallDataset(t)
	var n int
	cases := streamRecords(t, func(sink func(int, *StabilityCaseResult) error) (err error) {
		n, err = StabilityStream(ds, BandwidthOptions{
			Options:     Options{MaxPairs: 6},
			Workload:    traffic.Gravity,
			MaxFailures: 24,
		}, sink)
		return err
	})
	if n != len(cases) {
		t.Fatalf("StabilityStream reports %d cases, delivered %d", n, len(cases))
	}
	converged, oscillated, exhausted := outcomeCounts(cases)
	// Negotiation terminates by construction (no Exhausted analogue) and
	// its worst-ISP MEL should not be worse than the reactive end state
	// in aggregate.
	reactive := stats.NewCDF(column(cases, func(r *StabilityCaseResult) float64 { return r.ReactiveWorst }))
	negotiated := stats.NewCDF(column(cases, func(r *StabilityCaseResult) float64 { return r.NegotiatedWorst }))
	if negotiated.Mean() > reactive.Mean()+0.25 {
		t.Errorf("negotiated mean worst-MEL %.3f much worse than reactive %.3f",
			negotiated.Mean(), reactive.Mean())
	}
	t.Logf("converged=%d oscillated=%d exhausted=%d | reactive %s | negotiated %s",
		converged, oscillated, exhausted,
		stats.Summary(reactive), stats.Summary(negotiated))
}
