// Package mesh spins up a whole neighborhood of negotiation daemons in
// one process and drives them to convergence: one internal/agentd Agent
// per ISP, wired into an all-pairs mesh over in-memory pipes or
// loopback TCP, negotiating concurrent epochs of drifting traffic.
// Options.Metric selects the negotiation objective mesh-wide (distance,
// bandwidth, Fortz–Thorup), making the harness a multi-workload testbed
// for the daemon path.
//
// It is the test and benchmark harness for the §6 deployment model,
// and the keeper of its central invariant: Run's concurrent wire
// outcome must match RunSerial's in-process reference pair by pair,
// deterministically, for every concurrency bound and every metric.
// Epoch workloads derive from (seed, pair key, epoch) alone, so
// neither scheduling nor session interleaving can perturb a result.
package mesh

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/agentd"
	"repro/internal/continuous"
	"repro/internal/gen"
	"repro/internal/nexit"
	"repro/internal/pairsim"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// Options configures a mesh run. What both daemons of a pair must
// agree on and the Hello does not check is not an option: every pair
// negotiates at the paper's P = 10 (nexit.DefaultDistanceConfig) under
// agentd's fixed traffic drift, exactly as cmd/nexitagent daemons do.
type Options struct {
	// NumISPs sizes the generated dataset (default 10).
	NumISPs int
	// Seed roots the dataset and every drift stream (default 1).
	Seed int64
	// Metric is the negotiation objective every pair drives (default
	// continuous.MetricDistance). It parameterizes the controllers on
	// both sides and travels in every wire Hello.
	Metric continuous.Metric
	// Epochs is how many renegotiation epochs to run (default 4).
	Epochs int
	// MaxPairs caps the number of neighbor pairs (0 = all eligible).
	MaxPairs int
	// Sessions bounds each agent's concurrent sessions, per direction
	// (0 = GOMAXPROCS). Results are identical for every bound; only
	// wall-clock changes.
	Sessions int
	// UseTCP moves the transport from in-memory pipes to loopback TCP.
	UseTCP bool
	// Timeout bounds each wire exchange (nexitwire default when zero).
	Timeout time.Duration
	// Faults, when non-nil, injects deterministic failures (a mid-epoch
	// connection kill, an agent restart) into the wire run; the run
	// retries failed epochs and must still converge to the serial
	// reference through the epoch-resync handshake. Ignored by
	// RunSerial.
	Faults *FaultPlan
	// StateDir, when non-empty, gives every agent a snapshot store under
	// <StateDir>/<agent name> (the daemon's -state-dir): controllers
	// snapshot every SnapshotInterval epochs and a restarted agent
	// resumes from its persisted snapshots, replaying only the tail
	// since the newest one instead of its whole lifetime. Ignored by
	// RunSerial (the reference needs no durability).
	StateDir string
	// SnapshotInterval is the epoch distance between snapshot writes
	// (agentd.DefaultSnapshotInterval when zero; ignored without
	// StateDir).
	SnapshotInterval int
}

func (o Options) withDefaults() Options {
	if o.NumISPs == 0 {
		o.NumISPs = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Metric == "" {
		o.Metric = continuous.MetricDistance
	}
	if o.Epochs == 0 {
		o.Epochs = 4
	}
	return o
}

// prefBound is the class bound P every controller negotiates at.
var prefBound = nexit.DefaultDistanceConfig().PrefBound

// PairResult is one neighbor pair's trajectory through the run.
type PairResult struct {
	// I and J are the pair's dataset indices (I < J; agent I initiated).
	I, J int
	Pair *topology.Pair
	// Reports holds one epoch report per epoch, in order, as seen by
	// the initiating agent's controller.
	Reports []*continuous.EpochReport
}

// Result is the outcome of a mesh run.
type Result struct {
	// ISPs counts the agents that participated (dataset members with at
	// least one eligible neighbor).
	ISPs int
	// Pairs lists every negotiated pair in dataset order.
	Pairs []PairResult
	// Sessions counts completed wire sessions (pairs x epochs on a
	// clean run); zero for RunSerial. After an agent restart the count
	// omits the torn-down agent's history (its counters restart too).
	Sessions int64
	// Elapsed and SessionsPerSec measure throughput (wire runs only).
	Elapsed        time.Duration
	SessionsPerSec float64
	// Agents snapshots every agent's final status (wire runs only), and
	// Progress rolls them up; like Sessions, the rollup omits agents torn
	// down by a fault plan.
	Agents []agentd.Status
}

// meshPair is the internal wiring of one neighbor pair.
type meshPair struct {
	i, j int
	pair *topology.Pair
	wl   agentd.WorkloadFunc
}

// buildPairs generates the dataset and selects the mesh's neighbor
// pairs in deterministic dataset order.
func buildPairs(opt Options) ([]*topology.ISP, []meshPair, error) {
	cfg := gen.DefaultConfig()
	cfg.Seed = opt.Seed
	cfg.NumISPs = opt.NumISPs
	isps, err := gen.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	index := make(map[*topology.ISP]int, len(isps))
	for i, isp := range isps {
		index[isp] = i
	}
	var pairs []meshPair
	for _, p := range topology.AllPairs(isps, 2, true) {
		i, j := index[p.A], index[p.B]
		if opt.MaxPairs > 0 && len(pairs) >= opt.MaxPairs {
			break
		}
		p := p
		key := agentd.PairKey(i, j, opt.NumISPs)
		pairs = append(pairs, meshPair{
			i: i, j: j, pair: p,
			wl: agentd.EpochWorkloads(p, opt.Seed, key),
		})
	}
	if len(pairs) == 0 {
		return nil, nil, fmt.Errorf("mesh: no eligible neighbor pairs in a %d-ISP dataset", opt.NumISPs)
	}
	return isps, pairs, nil
}

// Run builds the mesh of daemons, negotiates opt.Epochs concurrent
// epochs, and returns every pair's trajectory plus throughput. With a
// FaultPlan, injected failures are healed by the epoch-resync
// handshake: failed epochs are re-driven (agentd.RunEpoch is idempotent
// per epoch, so only the pairs that actually missed an epoch negotiate
// again) and the outcome must still match the serial reference.
func Run(opt Options) (*Result, error) {
	opt = opt.withDefaults()
	_, pairs, err := buildPairs(opt)
	if err != nil {
		return nil, err
	}
	cache := pairsim.NewTableCache()
	// Load-metric base capacities are per pair, not per controller: both
	// endpoints (and any restarted agent) share one derivation.
	caps := continuous.NewCapacityCache()

	// One agent per participating ISP, each with a listener. Dials are
	// routed through per-agent holders so a restarted agent's fresh
	// listener is reachable via the closures its peers already hold.
	agents := make(map[int]*agentd.Agent)
	listeners := make(map[int]net.Listener)
	holders := make(map[int]*dialHolder)
	nameToIdx := make(map[string]int)
	var kill killSwitch
	// Resolve the fault schedule's target pairs once (indices are seeded
	// and normalized modulo the pair count).
	killPair, restartPair := -1, -1
	if opt.Faults != nil {
		killPair = faultTarget(opt.Faults.KillPair, len(pairs))
		restartPair = faultTarget(opt.Faults.RestartPair, len(pairs))
	}
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
		for _, a := range agents {
			a.Close()
		}
		for _, a := range agents {
			a.Wait()
		}
	}()
	for _, mp := range pairs {
		for _, i := range []int{mp.i, mp.j} {
			if holders[i] == nil {
				nameToIdx[agentd.AgentName(i)] = i
				holders[i] = &dialHolder{}
			}
		}
	}

	serveErr := make(chan error, 2*len(holders))
	// startAgent (re)builds agent i from scratch — fresh controllers
	// for every pair it participates in, a fresh listener — and starts
	// serving. Used once per agent at startup and again by the restart
	// fault; a restarted agent rejoins through the resync handshake.
	startAgent := func(i int) error {
		cfg := agentd.Config{
			Name:        agentd.AgentName(i),
			MaxSessions: opt.Sessions,
			Timeout:     opt.Timeout,
		}
		if opt.StateDir != "" {
			// One store per agent, keyed by name, exactly as the daemon's
			// -state-dir flag wires it: a restarted agent reopens the same
			// directory and resumes from its snapshots.
			store, err := snapshot.NewStore(filepath.Join(opt.StateDir, cfg.Name), 0)
			if err != nil {
				return err
			}
			cfg.Snapshots = store
			cfg.SnapshotInterval = opt.SnapshotInterval
		}
		a := agentd.New(cfg)
		for pi, mp := range pairs {
			if mp.i != i && mp.j != i {
				continue
			}
			ctl, err := continuous.NewWithMetric(pairsim.New(mp.pair, cache), prefBound, opt.Metric, caps)
			if err != nil {
				return err
			}
			if mp.i == i {
				// The lower-index agent initiates (it is Pair.A, hence
				// protocol side A); the higher-index one serves.
				dial := holders[mp.j].dial
				if pi == killPair {
					target := holders[mp.j]
					dial = func() (net.Conn, error) {
						c, err := target.dial()
						if err != nil {
							return nil, err
						}
						return kill.wrap(c), nil
					}
				}
				err = a.AddPeer(agentd.Peer{
					Name: agentd.AgentName(mp.j), Side: nexit.SideA,
					Ctl: ctl, Workloads: mp.wl, Dial: dial,
				})
			} else {
				err = a.AddPeer(agentd.Peer{
					Name: agentd.AgentName(mp.i), Side: nexit.SideB,
					Ctl: ctl, Workloads: mp.wl,
				})
			}
			if err != nil {
				return err
			}
		}
		var ln net.Listener
		if opt.UseTCP {
			tln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			addr := tln.Addr().String()
			holders[i].set(func() (net.Conn, error) { return net.Dial("tcp", addr) })
			ln = tln
		} else {
			pln := newPipeListener(agentd.AgentName(i))
			holders[i].set(pln.Dial)
			ln = pln
		}
		agents[i], listeners[i] = a, ln
		go func() {
			serveErr <- a.Serve(ln)
		}()
		return nil
	}
	restartAgent := func(i int) error {
		listeners[i].Close()
		agents[i].Close()
		agents[i].Wait()
		return startAgent(i)
	}
	for i := range holders {
		if err := startAgent(i); err != nil {
			return nil, err
		}
	}

	// Negotiate the epochs: all agents in parallel, a barrier per
	// epoch. A clean run drives each epoch exactly once; a faulted run
	// re-drives the agents that failed (bounded attempts) and relies on
	// RunEpoch's idempotency so healed pairs are not renegotiated.
	attempts := 1
	if opt.Faults != nil {
		attempts = faultAttempts
	}
	reports := make(map[[2]int][]*continuous.EpochReport, len(pairs))
	start := time.Now()
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		if f := opt.Faults; f != nil && epoch == f.KillConnEpoch {
			kill.arm()
		}
		pending := make([]int, 0, len(agents))
		for i := range agents {
			pending = append(pending, i)
		}
		var errs []error
		for attempt := 0; attempt < attempts && len(pending) > 0; attempt++ {
			var (
				wg     sync.WaitGroup
				mu     sync.Mutex
				failed []int
			)
			errs = nil
			for _, i := range pending {
				wg.Add(1)
				go func(i int, a *agentd.Agent) {
					defer wg.Done()
					reps, err := a.RunEpoch(context.Background(), epoch)
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						errs = append(errs, fmt.Errorf("agent %s epoch %d: %w", a.Name(), epoch, err))
						failed = append(failed, i)
					}
					for peer, rep := range reps {
						if j, ok := nameToIdx[peer]; ok {
							reports[[2]int{i, j}] = append(reports[[2]int{i, j}], rep)
						}
					}
				}(i, agents[i])
			}
			wg.Wait()
			pending = failed
		}
		// Surface listener failures (a Serve goroutine that returned an
		// error) rather than letting them masquerade as dial timeouts.
		for drained := false; !drained; {
			select {
			case err := <-serveErr:
				if err != nil {
					errs = append(errs, fmt.Errorf("mesh: listener: %w", err))
				}
			default:
				drained = true
			}
		}
		if len(errs) > 0 {
			return nil, errors.Join(errs...)
		}
		if f := opt.Faults; f != nil && epoch == f.RestartEpoch {
			if err := restartAgent(pairs[restartPair].j); err != nil {
				return nil, err
			}
		}
	}
	elapsed := time.Since(start)

	// Quiesce: stop accepting, hang up every connection an agent dialed
	// and wait for the serving handlers to exit; then no session is in
	// flight and the statuses are final. A session's last frame (Done)
	// travels from initiator to responder, so hanging up the initiators'
	// ends lets each responder read it and book its session before it
	// sees EOF, where closing the responders' ends could cut that read.
	for i := range agents {
		listeners[i].Close()
		holders[i].hangUp()
	}
	for _, a := range agents {
		a.Wait()
	}

	res := &Result{ISPs: len(agents), Elapsed: elapsed}
	for _, mp := range pairs {
		res.Pairs = append(res.Pairs, PairResult{
			I: mp.i, J: mp.j, Pair: mp.pair,
			Reports: reports[[2]int{mp.i, mp.j}],
		})
	}
	indices := make([]int, 0, len(agents))
	for i := range agents {
		indices = append(indices, i)
	}
	sort.Ints(indices)
	for _, i := range indices {
		st := agents[i].Status()
		res.Sessions += st.SessionsInitiated
		res.Agents = append(res.Agents, st)
	}
	if elapsed > 0 {
		res.SessionsPerSec = float64(res.Sessions) / elapsed.Seconds()
	}
	return res, nil
}

// RunSerial negotiates the same mesh entirely in-process, one pair at a
// time on one goroutine — the reference a wire run must reproduce.
func RunSerial(opt Options) (*Result, error) {
	opt = opt.withDefaults()
	_, pairs, err := buildPairs(opt)
	if err != nil {
		return nil, err
	}
	cache := pairsim.NewTableCache()
	caps := continuous.NewCapacityCache()
	res := &Result{}
	seen := make(map[int]bool)
	for _, mp := range pairs {
		seen[mp.i], seen[mp.j] = true, true
		ctl, err := continuous.NewWithMetric(pairsim.New(mp.pair, cache), prefBound, opt.Metric, caps)
		if err != nil {
			return nil, err
		}
		pr := PairResult{I: mp.i, J: mp.j, Pair: mp.pair}
		for epoch := 0; epoch < opt.Epochs; epoch++ {
			wAB, wBA := mp.wl(epoch)
			rep, err := ctl.Epoch(wAB, wBA)
			if err != nil {
				return nil, fmt.Errorf("mesh: serial pair (%d,%d) epoch %d: %w", mp.i, mp.j, epoch, err)
			}
			pr.Reports = append(pr.Reports, rep)
		}
		res.Pairs = append(res.Pairs, pr)
	}
	res.ISPs = len(seen)
	return res, nil
}
