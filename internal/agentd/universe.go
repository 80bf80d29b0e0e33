package agentd

import (
	"fmt"
	"sync"

	"repro/internal/continuous"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// AgentName is the canonical daemon name of the ISP at dataset index
// i. Every party of a mesh — cmd/nexitagent daemons and the
// internal/mesh harness alike — must use it, since inbound sessions
// are dispatched by the name carried in the Hello.
func AgentName(i int) string { return fmt.Sprintf("isp%03d", i) }

// PairKey derives the stable drift-stream key of neighbor pair (i, j);
// every party driving the pair — both its daemons and any serial
// reference — must use the same key.
func PairKey(i, j, numISPs int) int { return i*numISPs + j }

// volatility is the per-epoch multiplicative traffic drift of every
// pair's workloads. Both daemons of a pair derive the same workloads
// from it, so it is one constant rather than a per-daemon setting.
const volatility = 0.25

// EpochWorkloads returns the WorkloadFunc of one neighbor pair: each
// epoch's directional workloads are the gravity-model base traffic
// perturbed by the epoch's private drift stream. The stream depends only
// on (seed, key, epoch) — never on scheduling — which is what lets
// concurrent sessions reproduce a serial reference exactly, and what
// stands in for both ISPs observing the same traffic in deployment.
//
// The base traffic is deterministic in the pair alone, so the returned
// function derives it once, on first use, and keeps it (rebuilding it per
// epoch was a top allocation site in the session profile, DESIGN.md §9).
// The memo lives and dies with the function: hand the same function to
// both endpoints of a pair and the derivation is exactly-once per pair
// per run even when they race, and nothing outlives the run. The cached
// workloads are shared read-only (Drift copies the flows it perturbs).
func EpochWorkloads(pair *topology.Pair, seed int64, key int) WorkloadFunc {
	var (
		once           sync.Once
		baseAB, baseBA *traffic.Workload
	)
	return func(epoch int) (wAB, wBA *traffic.Workload) {
		once.Do(func() {
			baseAB = traffic.New(pair.A, pair.B, traffic.Gravity, nil)
			baseBA = traffic.New(pair.B, pair.A, traffic.Gravity, nil)
		})
		rng := runner.PairRand(seed, key*1_000_003+epoch)
		return continuous.Drift(baseAB, volatility, rng), continuous.Drift(baseBA, volatility, rng)
	}
}
