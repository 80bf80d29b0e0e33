// Package stability simulates the reactive, unilateral routing dynamics
// that motivate the paper (§1/§2.2): after a failure, each ISP
// repeatedly re-optimizes its own network given the other's last move —
// the process that produced the two-day oscillation incident between
// two large ISPs [paper ref 12]. The simulator detects convergence
// (a fixed point where neither ISP wants to move) and oscillation
// (a revisited state), and measures how much worse the reactive outcome
// is than the negotiated one.
//
// "The joint agreement precludes the possibility of a cycle of influence
// by design" — Nexit terminates by construction; this package quantifies
// how often the default dynamics do not.
package stability

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/pairsim"
	"repro/internal/traffic"
)

// Outcome classifies a reactive simulation.
type Outcome int

// Possible outcomes.
const (
	// Converged: a state was reached where neither ISP improves by
	// moving any single flow.
	Converged Outcome = iota
	// Oscillated: a previously seen state recurred — the dynamics are
	// in a cycle of influence and never settle.
	Oscillated
	// Exhausted: the round budget ran out without either verdict
	// (treated as non-converged by callers).
	Exhausted
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Converged:
		return "converged"
	case Oscillated:
		return "oscillated"
	case Exhausted:
		return "exhausted"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Result reports one reactive simulation.
type Result struct {
	Outcome Outcome
	// Rounds until the verdict.
	Rounds int
	// FinalWorstMEL is max(MEL_A, MEL_B) of the final (or cycling)
	// state.
	FinalWorstMEL float64
	// CycleLength is the period of the detected cycle (0 unless
	// Oscillated).
	CycleLength int
}

// Simulator runs best-response dynamics between two ISPs over a set of
// flows: in alternating rounds, downstream first, one ISP moves the
// single flow that most reduces its own MEL, ignoring the other ISP
// entirely.
type Simulator struct {
	S                  *pairsim.System
	Flows              []traffic.Flow
	FixedUp, FixedDown []float64
	CapUp, CapDown     []float64
	// MaxRounds bounds the simulation (default 64).
	MaxRounds int

	// load is ownMEL's buffer, reused across its calls: a replay prices
	// every candidate move with one, and fresh copies let the heap, and
	// with it peak RSS, grow with the replay's speed.
	load []float64
}

// Run simulates from the given initial assignment (copied).
func (sim *Simulator) Run(initial []int) *Result {
	maxRounds := sim.MaxRounds
	if maxRounds == 0 {
		maxRounds = 64
	}
	assign := append([]int(nil), initial...)
	seen := map[string]int{}
	res := &Result{}
	for round := 0; ; round++ {
		keyStr := fmt.Sprint(assign)
		if prev, ok := seen[keyStr]; ok {
			res.Outcome = Oscillated
			res.Rounds = round
			res.CycleLength = round - prev
			res.FinalWorstMEL = sim.worstMEL(assign)
			return res
		}
		seen[keyStr] = round
		if round >= maxRounds {
			res.Outcome = Exhausted
			res.Rounds = round
			res.FinalWorstMEL = sim.worstMEL(assign)
			return res
		}
		// The downstream ISP reacts first, as in the paper's incident:
		// the downstream shifted traffic with MEDs in response to the
		// upstream's post-failure reroute.
		actingUpstream := round%2 == 1
		if !sim.bestResponse(assign, actingUpstream) {
			// Give the other side one chance before declaring a fixed
			// point.
			if !sim.bestResponse(assign, !actingUpstream) {
				res.Outcome = Converged
				res.Rounds = round
				res.FinalWorstMEL = sim.worstMEL(assign)
				return res
			}
		}
	}
}

// bestResponse moves the single flow that most reduces the acting ISP's
// own MEL; returns false if no strictly improving move exists.
func (sim *Simulator) bestResponse(assign []int, upstream bool) bool {
	current := sim.ownMEL(assign, upstream)
	bestFlow, bestAlt := -1, -1
	best := current
	for i, f := range sim.Flows {
		old := assign[f.ID]
		for k := 0; k < sim.S.NumAlternatives(); k++ {
			if k == old {
				continue
			}
			assign[f.ID] = k
			if m := sim.ownMEL(assign, upstream); m < best-1e-12 {
				best, bestFlow, bestAlt = m, i, k
			}
		}
		assign[f.ID] = old
	}
	if bestFlow < 0 {
		return false
	}
	assign[sim.Flows[bestFlow].ID] = bestAlt
	return true
}

// ownMEL computes one ISP's MEL under the assignment, adding each flow
// along its row of S.Paths.
func (sim *Simulator) ownMEL(assign []int, upstream bool) float64 {
	up, down := sim.S.Paths()
	if upstream {
		load := append(sim.load[:0], sim.FixedUp...)
		sim.load = load
		for _, f := range sim.Flows {
			for _, l := range up.To(assign[f.ID], f.Src) {
				load[l] += f.Size
			}
		}
		return metrics.MEL(load, sim.CapUp)
	}
	load := append(sim.load[:0], sim.FixedDown...)
	sim.load = load
	for _, f := range sim.Flows {
		for _, l := range down.From(assign[f.ID], f.Dst) {
			load[l] += f.Size
		}
	}
	return metrics.MEL(load, sim.CapDown)
}

// worstMEL is max of the two ISPs' MELs.
func (sim *Simulator) worstMEL(assign []int) float64 {
	up := sim.ownMEL(assign, true)
	if down := sim.ownMEL(assign, false); down > up {
		return down
	}
	return up
}
