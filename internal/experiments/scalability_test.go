package experiments

import "testing"

func TestScalability(t *testing.T) {
	ds := smallDataset(t)
	fractions := []float64{0.2, 0.5, 1.0}
	rs := streamRecords(t, func(sink func(int, *ScalabilityPairResult) error) error {
		return ScalabilityStream(ds, Options{MaxPairs: 8}, fractions, sink)
	})
	gain := make([]float64, len(fractions))
	flows := make([]float64, len(fractions))
	for i := range fractions {
		gain[i] = median(column(rs, func(r *ScalabilityPairResult) float64 { return r.GainShares[i] }))
		flows[i] = median(column(rs, func(r *ScalabilityPairResult) float64 { return r.FlowShares[i] }))
	}
	// Negotiating more traffic keeps (weakly) more of the gain, and the
	// full fraction recovers essentially everything.
	for i := 1; i < len(fractions); i++ {
		if gain[i] < gain[i-1]-0.15 {
			t.Errorf("gain share dropped from %.2f to %.2f at fraction %.1f",
				gain[i-1], gain[i], fractions[i])
		}
	}
	if gain[2] < 0.9 {
		t.Errorf("full-traffic share = %.2f, want ~1", gain[2])
	}
	// Gravity sizes are skewed: covering 50% of traffic needs well under
	// 50% of the flows.
	if flows[1] >= 0.5 {
		t.Errorf("50%% of traffic needed %.0f%% of flows; expected skew", 100*flows[1])
	}
	// Flow shares grow with the traffic fraction.
	if !(flows[0] <= flows[1] && flows[1] <= flows[2]) {
		t.Errorf("flow shares not monotone: %v", flows)
	}
}
