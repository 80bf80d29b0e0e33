// Package traffic generates the workloads of the paper's evaluation: one
// flow per (upstream PoP, downstream PoP) pair, with sizes drawn from a
// gravity model over city populations (§5.2) or from the alternate models
// the paper reports trying (identical weights, uniform random weights).
//
// A Flow is directed: Src is a PoP in the upstream ISP, Dst a PoP in the
// downstream ISP. All packets of a flow take the same path through both
// networks (paper §4); choosing the interconnection for each flow is
// exactly what the negotiation decides.
package traffic

import (
	"fmt"
	"math/rand"

	"repro/internal/topology"
)

// Flow is a stream of packets from a source PoP in the upstream ISP to a
// destination PoP in the downstream ISP.
type Flow struct {
	ID   int     // dense index, stable within a workload
	Src  int     // PoP ID in the upstream ISP
	Dst  int     // PoP ID in the downstream ISP
	Size float64 // offered load in arbitrary units (mean 1 across the workload)
}

// Model selects the flow-size model.
type Model int

// Flow-size models from paper §5.2.
const (
	// Gravity sizes flows proportionally to the product of the source
	// and destination city populations (the paper's primary model,
	// following Zhang et al. and Medina et al.).
	Gravity Model = iota
	// Identical gives every flow the same size (alternate model).
	Identical
	// UniformRandom draws PoP weights uniformly from [0.5, 1.5) and
	// sizes flows by the product of endpoint weights (alternate model).
	UniformRandom
)

// String names the model.
func (m Model) String() string {
	switch m {
	case Gravity:
		return "gravity"
	case Identical:
		return "identical"
	case UniformRandom:
		return "uniform-random"
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// Workload is the set of flows from the upstream ISP to the downstream
// ISP of a pair, in one direction.
type Workload struct {
	Upstream, Downstream *topology.ISP
	Flows                []Flow
}

// New builds the workload for traffic flowing from upstream to
// downstream: one flow per (src PoP, dst PoP) pair, sized by the model
// and normalized to mean size 1. rng is only used by UniformRandom; it
// may be nil for the other models.
func New(upstream, downstream *topology.ISP, model Model, rng *rand.Rand) *Workload {
	w := &Workload{
		Upstream: upstream, Downstream: downstream,
		Flows: make([]Flow, 0, len(upstream.PoPs)*len(downstream.PoPs)),
	}
	srcW := popWeights(upstream, model, rng)
	dstW := popWeights(downstream, model, rng)
	id := 0
	var total float64
	for s := range upstream.PoPs {
		for d := range downstream.PoPs {
			size := srcW[s] * dstW[d]
			w.Flows = append(w.Flows, Flow{ID: id, Src: s, Dst: d, Size: size})
			total += size
			id++
		}
	}
	// Normalize to mean 1 so metrics are comparable across models.
	if total > 0 {
		scale := float64(len(w.Flows)) / total
		for i := range w.Flows {
			w.Flows[i].Size *= scale
		}
	}
	return w
}

// popWeights returns the per-PoP gravity weight under the given model.
func popWeights(isp *topology.ISP, model Model, rng *rand.Rand) []float64 {
	w := make([]float64, len(isp.PoPs))
	switch model {
	case Gravity:
		for i, p := range isp.PoPs {
			if p.Population > 0 {
				w[i] = p.Population
			} else {
				w[i] = 1
			}
		}
	case Identical:
		for i := range w {
			w[i] = 1
		}
	case UniformRandom:
		if rng == nil {
			panic("traffic: UniformRandom model requires a rand source")
		}
		for i := range w {
			w[i] = 0.5 + rng.Float64()
		}
	default:
		panic(fmt.Sprintf("traffic: unknown model %d", model))
	}
	return w
}
