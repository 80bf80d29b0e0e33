// Package continuous implements the paper's §6 deployment model of
// negotiation as an ongoing process rather than a one-shot event: "ISPs
// inform each other of their updated preferences for each flow being
// exchanged. These would be used to continually find routing patterns
// that benefit both ISPs."
//
// A Controller manages one ISP pair across epochs. Each epoch it
// observes the (drifting) traffic into its flow table — one slot per
// (direction, source PoP, destination PoP), holding the flow's installed
// path and its §6 stability record — selects the flows that have stayed
// above the size threshold long enough to negotiate ("the upstream will
// trigger a new flow only if its size stays above a threshold for a
// certain period"), renegotiates them with fresh preferences, applies
// the outcome, times out flows gone idle, and settles the credit ledger
// (internal/credits) so lopsided epochs are repaid later.
//
// The controller is metric-generic: the epoch's negotiation objective
// is a named Metric (distance, bandwidth, Fortz–Thorup), and
// NewEvaluator supplies the matching evaluator for either protocol
// side, reset to a clean slate at the start of every epoch. Invariants
// the daemon layer builds
// on: epochs are deterministic in (system, metric, workloads) — no
// hidden RNG, no wall-clock — and an epoch that errors does not
// advance, so both endpoints of a wire pair stay in lockstep; a
// concurrent wire run must therefore reproduce the serial in-process
// reference exactly, per metric (the mesh harness pins this).
package continuous

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/baseline"
	"repro/internal/capacity"
	"repro/internal/credits"
	"repro/internal/nexit"
	"repro/internal/pairsim"
	"repro/internal/traffic"
)

// Metric names a negotiation objective the controller can drive — one
// of the paper's §5 preference metrics. The name is the identity that
// travels in the nexitwire Hello, so two daemons configured for
// different objectives reject each other at session open instead of
// silently negotiating over incomparable preferences.
type Metric string

// Supported metrics.
const (
	// MetricDistance is the §5.1 objective: the distance a flow travels
	// inside the ISP's own network, shorter is better.
	MetricDistance Metric = "distance"
	// MetricBandwidth is the §5.2 objective: the maximum increase in
	// link load (relative to capacity) along the flow's own-network
	// path, with preference reassignment after each 5% of traffic.
	MetricBandwidth Metric = "bandwidth"
	// MetricFortzThorup is the paper's alternate bandwidth objective:
	// the increase in total piecewise-linear Fortz–Thorup link cost.
	MetricFortzThorup Metric = "fortz-thorup"
)

// Metrics lists every supported metric in canonical order.
func Metrics() []Metric {
	return []Metric{MetricDistance, MetricBandwidth, MetricFortzThorup}
}

// ParseMetric resolves a metric name as used by CLI flags and wire
// Hellos. The empty string selects MetricDistance, the paper's primary
// objective.
func ParseMetric(s string) (Metric, error) {
	switch Metric(s) {
	case "", MetricDistance:
		return MetricDistance, nil
	case MetricBandwidth:
		return MetricBandwidth, nil
	case MetricFortzThorup:
		return MetricFortzThorup, nil
	}
	return "", fmt.Errorf("continuous: unknown metric %q (have %v)", s, Metrics())
}

// WorkloadFunc supplies the two directional workloads of one epoch, in
// the pair's A->B orientation. It must be deterministic in the epoch
// index alone — no scheduling, no wall clock — which is what makes
// SeekEpoch's local replay reconstruct state exactly.
type WorkloadFunc func(epoch int) (wAB, wBA *traffic.Workload)

// Negotiator runs one epoch's negotiation session over an assembled
// table. cfg is the ledger-adjusted configuration for this epoch; items,
// defaults, and numAlts define the universe exactly as for
// nexit.Negotiate. The result's GainA/GainB must be oriented like the
// controller's system (GainA is Sys.Pair.A's gain).
type Negotiator func(cfg nexit.Config, items []nexit.Item, defaults []int, numAlts int) (*nexit.Result, error)

// Controller drives continuous negotiation for one pair.
type Controller struct {
	Sys *pairsim.System
	Rev *pairsim.System
	Cfg nexit.Config
	// P is the preference class bound used by the evaluators.
	P int
	// Metric is the pair's negotiation objective; NewEvaluator builds
	// its evaluators. Set by New (distance) or NewWithMetric.
	Metric Metric
	// Ledger carries gain imbalances across epochs.
	Ledger *credits.Ledger

	// slots is the pair's flow table, one entry per (dir, src, dst) at
	// slotIndex: the A->B flows (src in A, dst in B) then the B->A flows,
	// so index order is the snapshot's canonical (Dir, Src, Dst) order.
	slots []slot
	epoch int
	// nonce is the ingress-nonce position a v1 snapshot records. Nothing
	// mints nonces (a flow's ingress identifier is its slot's key, see
	// signature), so it only round-trips through snapshots.
	nonce uint64

	// capA and capB are the per-link capacities of each ISP's own
	// network (A's links, B's links), derived once from the pair's base
	// undrifted traffic under early-exit routing — the §5.2 "capacity
	// proportional to steady-state load" rule. Only the load-based
	// metrics use them; both endpoints of a wire pair derive the same
	// vectors because they depend on the system alone.
	capA, capB []float64

	// evalA and evalB cache the per-side evaluators across epochs.
	// Sessions are serialized per controller (the daemon layer holds its
	// pair lock across each epoch; simulations run epochs sequentially),
	// and the stateful evaluators reset to their pre-session loads
	// between uses, so reuse is observationally identical to building
	// fresh ones — it only drops the per-epoch view/scratch rebuild from
	// the session hot path (DESIGN.md §9).
	evalA, evalB nexit.Evaluator

	// Per-epoch scratch reused across Epoch calls under the same
	// serialization guarantee. The engine and wire layer never retain
	// these past the epoch's session.
	obsScratch      []obs
	itemsScratch    []nexit.Item
	defaultsScratch []int
	slotScratch     []int
}

// The §6 stability policy. A flow is negotiated once it has stayed at or
// above sizeThreshold for stableTicks epochs, and a tracked flow unseen
// for more than idleTimeout epochs times out. Snapshots record the three
// values; a restore refuses any others.
const (
	sizeThreshold = 0.5
	stableTicks   = 1
	idleTimeout   = 3
)

// slot is one flow's state across epochs: its installed interconnection
// and its stability record. alt is -1 while never negotiated; it outlives
// the record, so a flow that times out and returns waits out the
// stability window again but resumes from the path it was left on. The
// record is tracked from the flow's first observation until expire
// clears it.
type slot struct {
	alt int32
	// The stability record: tracked from an observation until the
	// time-out; negotiable (and everStable) since its promotion at
	// announcedAt; size and lastSeen of the last observation; aboveSince
	// the epoch since which size has stayed at or above the threshold,
	// -1 while below.
	tracked, negotiable, everStable   bool
	size                              float64
	lastSeen, aboveSince, announcedAt int
}

// untracked is a slot's record before the first observation and after
// a time-out.
func untracked(alt int32) slot { return slot{alt: alt, aboveSince: -1} }

// stability is the promotion rule: the epoch since which the flow has
// stayed at or above the threshold (-1 when below), and whether it is
// negotiable, once size is observed at epoch. A negotiable flow stays
// negotiable until it times out.
func (sl *slot) stability(size float64, epoch int) (aboveSince int, negotiable bool) {
	if size < sizeThreshold {
		return -1, sl.negotiable
	}
	aboveSince = sl.aboveSince
	if aboveSince < 0 {
		aboveSince = epoch
	}
	return aboveSince, sl.negotiable || epoch-aboveSince >= stableTicks
}

// expire is the idle time-out ("flows that are inactive for a certain
// period are timed out"): a tracked flow unseen for more than
// idleTimeout epochs goes back to untracked, keeping its path.
func (sl *slot) expire(epoch int) bool {
	if !sl.tracked || epoch-sl.lastSeen <= idleTimeout {
		return false
	}
	*sl = untracked(sl.alt)
	return true
}

// obs is one observed flow of an epoch (see EpochVia step 1).
type obs struct {
	slot int
	dir  nexit.Direction
	flow traffic.Flow
}

// newSlots returns the empty flow table of a pair.
func newSlots(sys *pairsim.System) []slot {
	slots := make([]slot, 2*len(sys.Pair.A.PoPs)*len(sys.Pair.B.PoPs))
	for i := range slots {
		slots[i] = untracked(-1)
	}
	return slots
}

// slotIndex locates a flow in the table, or reports that (dir, src, dst)
// is not a flow of this pair.
func (c *Controller) slotIndex(dir nexit.Direction, src, dst int) (int, bool) {
	nSrc, nDst, base := len(c.Sys.Pair.A.PoPs), len(c.Sys.Pair.B.PoPs), 0
	if dir == nexit.BtoA {
		nSrc, nDst, base = nDst, nSrc, nSrc*nDst
	}
	if dir > nexit.BtoA || uint(src) >= uint(nSrc) || uint(dst) >= uint(nDst) {
		return 0, false
	}
	return base + src*nDst + dst, true
}

// slotKey is slotIndex's inverse.
func (c *Controller) slotKey(i int) (dir nexit.Direction, src, dst int) {
	nDst := len(c.Sys.Pair.B.PoPs)
	if half := len(c.slots) / 2; i >= half {
		dir, i, nDst = nexit.BtoA, i-half, len(c.Sys.Pair.A.PoPs)
	}
	return dir, i / nDst, i % nDst
}

// EpochReport summarizes one controller epoch.
type EpochReport struct {
	Epoch           int
	Observed        int // flows seen this epoch
	Negotiated      int // flows on the table
	Moved           int // flows whose interconnection changed
	Expired         int // tracked flows timed out
	DistanceDefault float64
	DistanceApplied float64
	GainA, GainB    int
	LedgerBalance   int
	// Assign is the negotiated table's assignment for this epoch (one
	// interconnection index per negotiated item, in table order); nil
	// when nothing reached the table. The mesh harness compares it
	// pair-by-pair against the serial reference.
	Assign []int
}

// New builds a distance-metric controller with the paper's §5.1
// defaults. It is NewWithMetric(sys, p, MetricDistance, nil).
func New(sys *pairsim.System, p int) *Controller {
	c, err := NewWithMetric(sys, p, MetricDistance, nil)
	if err != nil {
		panic(err) // unreachable: distance always constructs
	}
	return c
}

// CapacityCache memoizes the base capacities load-based metrics derive
// from a pair's steady state, so the many controllers sharing a pair —
// both endpoints of every wire pair, every agent restart — reuse one
// computation instead of rebuilding it per controller. It is safe for
// concurrent use in the same way as pairsim.TableCache: a sync.Map slot
// per pair plus a per-pair sync.Once makes each derivation exactly-once
// even when both endpoints race on the same pair. The cached vectors
// are shared read-only (evaluators copy load state, never capacities),
// and caching changes no result: capacities are deterministic in the
// pair alone.
type CapacityCache struct {
	caps sync.Map // *topology.Pair -> *capEntry
}

// capEntry is one pair's slot in the cache.
type capEntry struct {
	once       sync.Once
	capA, capB []float64
}

// NewCapacityCache returns an empty cache.
func NewCapacityCache() *CapacityCache {
	return &CapacityCache{}
}

// get returns the pair's base capacities, computing them on first use.
// A nil cache computes fresh vectors (the uncached path).
func (c *CapacityCache) get(sys, rev *pairsim.System) (capA, capB []float64) {
	if c == nil {
		return baseCapacities(sys, rev)
	}
	e, ok := c.caps.Load(sys.Pair)
	if !ok {
		e, _ = c.caps.LoadOrStore(sys.Pair, new(capEntry))
	}
	entry := e.(*capEntry)
	entry.once.Do(func() { entry.capA, entry.capB = baseCapacities(sys, rev) })
	return entry.capA, entry.capB
}

// NewWithMetric builds a controller negotiating the named metric. The
// metric selects both the evaluator family (see NewEvaluator) and the
// engine configuration: load-based metrics renegotiate preferences
// after each 5% of traffic (nexit.DefaultBandwidthConfig), distance
// never does. An empty metric means distance. Load metrics draw their
// base capacities from caps; pass one cache per mesh or daemon so pairs
// negotiated by several controllers derive them once, or nil to compute
// them fresh.
func NewWithMetric(sys *pairsim.System, p int, metric Metric, caps *CapacityCache) (*Controller, error) {
	metric, err := ParseMetric(string(metric))
	if err != nil {
		return nil, err
	}
	var cfg nexit.Config
	if metric == MetricDistance {
		cfg = nexit.DefaultDistanceConfig()
	} else {
		cfg = nexit.DefaultBandwidthConfig()
	}
	cfg.PrefBound = p
	c := &Controller{
		Sys:    sys,
		Rev:    sys.Reverse(),
		Cfg:    cfg,
		P:      p,
		Metric: metric,
		Ledger: credits.NewLedger(2 * p),
		slots:  newSlots(sys),
	}
	if metric != MetricDistance {
		c.capA, c.capB = caps.get(c.Sys, c.Rev)
	}
	return c, nil
}

// baseCapacities derives each ISP's own-network link capacities from
// the pair's base (undrifted) gravity traffic in both directions,
// routed early-exit — the steady state the network was provisioned
// for. Deterministic in the system alone.
func baseCapacities(sys, rev *pairsim.System) (capA, capB []float64) {
	wAB := traffic.New(sys.Pair.A, sys.Pair.B, traffic.Gravity, nil)
	wBA := traffic.New(rev.Pair.A, rev.Pair.B, traffic.Gravity, nil)
	upAB, downAB := sys.Loads(wAB.Flows, baseline.EarlyExit(sys, wAB.Flows))
	upBA, downBA := rev.Loads(wBA.Flows, baseline.EarlyExit(rev, wBA.Flows))
	loadA := make([]float64, len(upAB)) // A's links: A->B upstream + B->A downstream
	for i := range loadA {
		loadA[i] = upAB[i] + downBA[i]
	}
	loadB := make([]float64, len(downAB)) // B's links: A->B downstream + B->A upstream
	for i := range loadB {
		loadB[i] = downAB[i] + upBA[i]
	}
	return capacity.Assign(loadA, capacity.Options{}), capacity.Assign(loadB, capacity.Options{})
}

// NewEvaluator returns the evaluator for one epoch's session on the
// given protocol side (SideA is the pair's A / wire initiator). The
// load-based evaluators are stateful within a session — commits move
// link load — so every epoch starts from a clean slate over the
// controller's fixed base capacities: the controller builds each side's
// evaluator once and resets it to zero load between epochs, which is
// indistinguishable from constructing fresh (sessions are serialized
// per controller). Both endpoints of a wire pair and the serial
// in-process reference start each epoch from the identical evaluator
// state, which is what keeps the concurrent wire outcome pinned to the
// serial reference for every metric.
func (c *Controller) NewEvaluator(side nexit.Side) nexit.Evaluator {
	cached := &c.evalA
	if side == nexit.SideB {
		cached = &c.evalB
	}
	if *cached != nil {
		if e, ok := (*cached).(interface{ Reset(load []float64) }); ok {
			e.Reset(nil)
		}
		return *cached
	}
	capv := c.capA
	if side == nexit.SideB {
		capv = c.capB
	}
	var eval nexit.Evaluator
	switch c.Metric {
	case MetricBandwidth:
		eval = nexit.NewBandwidthEvaluator(c.Sys, side, c.P, make([]float64, len(capv)), capv)
	case MetricFortzThorup:
		eval = nexit.NewFortzThorupEvaluator(c.Sys, side, c.P, make([]float64, len(capv)), capv)
	default:
		eval = nexit.NewDistanceEvaluator(c.Sys, side, c.P)
	}
	*cached = eval
	return eval
}

// Epoch processes one epoch's workloads (both directions) in-process,
// negotiating with both sides' metric evaluators (NewEvaluator) as the
// simulations do, and returns the report. It is EpochVia with no remote
// negotiator.
func (c *Controller) Epoch(wAB, wBA *traffic.Workload) (*EpochReport, error) {
	return c.EpochVia(nil, wAB, wBA)
}

// EpochVia processes one epoch's workloads (both directions) and
// returns the report. The controller observes every flow, negotiates
// the stable ones, and leaves the rest on their current (or early-exit)
// path.
//
// negotiate, when non-nil, replaces the in-process engine call: agentd
// passes a nexitwire session so the other ISP's preferences come from a
// remote evaluator instead of a local one. It is invoked even for an
// empty table, so two daemons driving the same pair stay in epoch
// lockstep (the empty session doubles as a heartbeat).
//
// An epoch that fails — a flow that is not the pair's, a negotiator
// error — leaves the controller exactly as it was (its Snapshot encodes
// to the same bytes): everything fallible runs before the first write.
// Both daemon roles retry, resync or restore on top of that.
func (c *Controller) EpochVia(negotiate Negotiator, wAB, wBA *traffic.Workload) (*EpochReport, error) {
	rep := &EpochReport{Epoch: c.epoch}
	systems := [2]*pairsim.System{nexit.AtoB: c.Sys, nexit.BtoA: c.Rev}

	// 1. Find each observed flow's slot.
	all := c.obsScratch[:0]
	for d, w := range [2]*traffic.Workload{wAB, wBA} {
		dir := nexit.Direction(d)
		for _, f := range w.Flows {
			i, ok := c.slotIndex(dir, f.Src, f.Dst)
			if !ok {
				return nil, fmt.Errorf("continuous: epoch %d: flow (dir %d, src %d, dst %d) is not between PoPs of %v",
					c.epoch, dir, f.Src, f.Dst, c.Sys.Pair)
			}
			all = append(all, obs{slot: i, dir: dir, flow: f})
		}
	}
	c.obsScratch = all
	rep.Observed = len(all)

	// 2. Build the negotiation table from the flows this epoch's
	// observation leaves stable enough to negotiate, each defaulting to
	// its installed path (early-exit before the first).
	items := c.itemsScratch[:0]
	defaults := c.defaultsScratch[:0]
	slotOf := c.slotScratch[:0]
	for _, o := range all {
		sl := &c.slots[o.slot]
		if _, negotiable := sl.stability(o.flow.Size, c.epoch); !negotiable {
			continue
		}
		f := o.flow
		f.ID = len(items)
		alt := int(sl.alt)
		if alt < 0 {
			alt = systems[o.dir].EarlyExit(f)
		}
		items = append(items, nexit.Item{ID: f.ID, Flow: f, Dir: o.dir})
		defaults = append(defaults, alt)
		slotOf = append(slotOf, o.slot)
	}
	c.itemsScratch, c.defaultsScratch, c.slotScratch = items, defaults, slotOf
	rep.Negotiated = len(items)

	// 3. Negotiate with the ledger-adjusted configuration. A remote
	// negotiator runs even over an empty table (epoch lockstep); the
	// in-process default skips the no-op session.
	var res *nexit.Result
	if len(items) > 0 || negotiate != nil {
		if negotiate == nil {
			negotiate = func(cfg nexit.Config, items []nexit.Item, defaults []int, numAlts int) (*nexit.Result, error) {
				evalA := c.NewEvaluator(nexit.SideA)
				evalB := c.NewEvaluator(nexit.SideB)
				return nexit.Negotiate(cfg, evalA, evalB, items, defaults, numAlts)
			}
		}
		var err error
		res, err = negotiate(c.Ledger.Apply(c.Cfg), items, defaults, c.Sys.NumAlternatives())
		if err != nil {
			return nil, fmt.Errorf("continuous: epoch %d: %w", c.epoch, err)
		}
		if len(res.Assign) != len(items) {
			return nil, fmt.Errorf("continuous: epoch %d: negotiator returned %d assignments for %d items",
				c.epoch, len(res.Assign), len(items))
		}
	}

	// 4. The epoch stands: record the observations, expire what went
	// idle, settle the ledger and install the outcome.
	for _, o := range all {
		sl := &c.slots[o.slot]
		aboveSince, negotiable := sl.stability(o.flow.Size, c.epoch)
		if negotiable && !sl.negotiable {
			sl.negotiable, sl.everStable, sl.announcedAt = true, true, c.epoch
		}
		sl.tracked, sl.size, sl.lastSeen, sl.aboveSince = true, o.flow.Size, c.epoch, aboveSince
	}
	for i := range c.slots {
		if c.slots[i].expire(c.epoch) {
			rep.Expired++
		}
	}
	if res != nil {
		if len(items) > 0 {
			c.Ledger.Settle(c.epoch, res)
			rep.Assign = append([]int(nil), res.Assign...)
		}
		rep.GainA, rep.GainB = res.GainA, res.GainB
		for i, si := range slotOf {
			if res.Assign[i] != defaults[i] {
				rep.Moved++
			}
			c.slots[si].alt = int32(res.Assign[i])
		}
	}
	rep.LedgerBalance = c.Ledger.Balance

	// 5. Account the epoch: distance under pure early-exit vs under the
	// applied assignments.
	for _, o := range all {
		sys := systems[o.dir]
		km := sys.TotalDistKm(o.flow, sys.EarlyExit(o.flow))
		rep.DistanceDefault += km
		if alt := c.slots[o.slot].alt; alt >= 0 {
			km = sys.TotalDistKm(o.flow, int(alt))
		}
		rep.DistanceApplied += km
	}
	c.epoch++
	return rep, nil
}

// EpochIndex returns the number of epochs processed so far (the index
// the next Epoch call will report).
func (c *Controller) EpochIndex() int { return c.epoch }

// SeekEpoch fast-forwards the controller to epoch n by replaying the
// intervening epochs locally with the in-process negotiator. Because
// epochs are deterministic in (system, metric, workloads) and a wire
// session reproduces the in-process outcome exactly (the mesh parity
// invariant), the replay reconstructs the flow table, ledger, and applied
// assignments of a controller that lived through those epochs — this is
// the epoch-resync handshake's fast-forward rule (DESIGN.md §7): a
// restarted or lagging daemon catches up to its peer without any wire
// traffic. Seeking to the current epoch is a no-op; seeking backwards
// is an error (deterministic replay cannot rewind).
func (c *Controller) SeekEpoch(n int, workloads WorkloadFunc) error {
	if n < c.epoch {
		return fmt.Errorf("continuous: cannot seek backwards from epoch %d to %d", c.epoch, n)
	}
	for c.epoch < n {
		wAB, wBA := workloads(c.epoch)
		if _, err := c.Epoch(wAB, wBA); err != nil {
			return fmt.Errorf("continuous: seek to epoch %d: %w", n, err)
		}
	}
	return nil
}

// Drift returns a copy of the workload with flow sizes perturbed
// multiplicatively by up to ±volatility — the "changes to traffic
// matrices" of §5.2/§6 that keep renegotiation necessary.
func Drift(w *traffic.Workload, volatility float64, rng *rand.Rand) *traffic.Workload {
	out := &traffic.Workload{Upstream: w.Upstream, Downstream: w.Downstream}
	out.Flows = append([]traffic.Flow(nil), w.Flows...)
	for i := range out.Flows {
		f := 1 + (rng.Float64()*2-1)*volatility
		if f < 0.05 {
			f = 0.05
		}
		out.Flows[i].Size *= f
	}
	return out
}
