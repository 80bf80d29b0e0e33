package experiments

import (
	"repro/internal/nexit"
	"repro/internal/stability"
)

// StabilityCaseResult is one failure case's streamed contribution to
// the stability comparison.
type StabilityCaseResult struct {
	// Pair names the ISP pair ("ispA-ispB") and FailedInterconnection
	// the hypothesized failure.
	Pair                  string `json:"pair"`
	FailedInterconnection int    `json:"failed_interconnection"`
	// Outcome is the reactive dynamics' fate for this case
	// (stability.Converged / Oscillated / Exhausted).
	Outcome         stability.Outcome `json:"outcome"`
	ReactiveWorst   float64           `json:"reactive_worst_mel"`
	NegotiatedWorst float64           `json:"negotiated_worst_mel"`
}

// StabilityStream quantifies the paper's motivating claim (§1/§2.2):
// reactive unilateral routing after failures can enter cycles of
// influence, while negotiation terminates by construction. It replays
// the bandwidth failure cases under best-response reactive dynamics
// (downstream first, as in the paper's incident) and under Nexit,
// delivering each case's result to sink in (pair, interconnection)
// order without retaining it. Returns the number of cases delivered.
func StabilityStream(ds *Dataset, opt BandwidthOptions, sink func(idx int, r *StabilityCaseResult) error) (int, error) {
	opt.Options = opt.Options.withDefaults()
	cfg := nexit.DefaultBandwidthConfig()
	cfg.PrefBound = opt.PrefBound

	return forEachFailureCase(ds, opt, saltStability,
		func(fc *failureCase) (*StabilityCaseResult, error) {
			sim := &stability.Simulator{
				S:               fc.s2,
				Flows:           fc.impacted,
				FixedUp:         fc.fixedUp,
				FixedDown:       fc.fixedDown,
				CapUp:           fc.capUp,
				CapDown:         fc.capDown,
				DownstreamFirst: true,
			}
			r := sim.Run(fc.defAssign)

			evalA := fc.newBandwidthEvaluator(nexit.SideA, opt.PrefBound, false)
			evalB := fc.newBandwidthEvaluator(nexit.SideB, opt.PrefBound, false)
			neg, err := nexit.Negotiate(cfg, evalA, evalB, fc.items, fc.defaults, fc.s2.NumAlternatives())
			if err != nil {
				return nil, err
			}
			up, down := fc.mels(neg.Assign)
			return &StabilityCaseResult{
				Pair:                  pairLabel(fc.pair),
				FailedInterconnection: fc.failed,
				Outcome:               r.Outcome,
				ReactiveWorst:         r.FinalWorstMEL,
				NegotiatedWorst:       maxFloat(up, down),
			}, nil
		},
		sink)
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
