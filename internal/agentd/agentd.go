// Package agentd is the long-running negotiation daemon of the paper's
// §6 deployment model: one process represents one ISP and negotiates
// *continually* with *every* neighbor. Where cmd/nexitagent used to be a
// one-shot, single-pair demo, an Agent serves many neighbors at once —
// a listener accepts inbound sessions, a dialer (with retry/backoff)
// opens outbound ones, and a per-peer continuous.Controller renegotiates
// the pair's flows epoch after epoch over the nexitwire protocol.
//
// Conventions. Every neighbor pair is oriented like pairsim.System:
// Pair.A is the wire initiator (protocol side A) and Pair.B the
// responder. Between two daemons exactly one direction of sessions
// exists, so the dial graph is acyclic and bounded session limits
// cannot deadlock across agents. One connection per neighbor carries
// all epochs back to back (nexitwire session reuse); each inbound Hello
// is dispatched to the peer it names.
//
// Both endpoints must assemble identical negotiation tables each epoch
// — in deployment because both ISPs observe the same traffic, here
// because both sides derive the epoch's workload deterministically from
// the shared dataset seed (see Peer.Workloads). Mismatched tables fail
// fast at Hello time via the workload hash; a stalled or aborting peer
// surfaces as a counted, per-peer session failure rather than a hung
// daemon.
//
// Negotiation is metric-generic per peer: each peer's controller names
// its objective (continuous.Metric — distance, bandwidth, or
// Fortz–Thorup) and the agent builds the matching evaluator fresh each
// epoch and carries the metric in the wire Hello, so one daemon can
// negotiate distance with one neighbor and bandwidth with another. A
// neighbor configured for a different metric is rejected cleanly at
// session open (labelled reason, no epoch advances on either side —
// never a desync). Invariants: epochs are deterministic in (system,
// metric, seed) and a failed epoch leaves both controllers where they
// were, so the mesh harness can pin the concurrent wire outcome to the
// serial in-process reference for every metric.
//
// Failures self-heal. Because epochs are deterministic in (system,
// metric, seed), a controller that missed epochs can reconstruct them
// by local replay (continuous.Controller.SeekEpoch), and the v3 wire
// Hello carries the initiator's epoch index so both sides can tell who
// is behind: a lagging responder fast-forwards before serving, a
// lagging initiator fast-forwards before dialing, and an initiator
// that is told (via nexitwire.EpochSkewError) that its responder is
// ahead fast-forwards and retries the session once. A failed or
// restarted daemon therefore rejoins the mesh without operator
// intervention; every resync is counted in the status surface.
package agentd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/continuous"
	"repro/internal/nexit"
	"repro/internal/nexitwire"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
)

// Default daemon parameters.
const (
	// DefaultDialAttempts bounds outbound connection retries per epoch.
	DefaultDialAttempts = 5
	// DefaultDialBackoff is the first retry delay; it doubles per retry.
	DefaultDialBackoff = 20 * time.Millisecond
	// MaxDialBackoff caps the per-peer retry delay. The delay ladder
	// persists across epochs (a neighbor that has been down for ten
	// epochs is not hammered from the base delay each time) and resets
	// only on a successful session, so the cap keeps a long outage from
	// escalating into multi-minute waits once the neighbor returns.
	MaxDialBackoff = 2 * time.Second
	// MaxEpochSeek bounds how many epochs a resync may replay in one
	// step — the tail after any snapshot restore. Replay is synchronous
	// work under the peer's session lock, and the target epoch comes
	// from the other endpoint (the Hello, or a skew reject's parsed
	// reason), so without a bound a buggy or hostile peer could demand
	// a multi-billion-epoch replay — hours of CPU and a permanently
	// advanced controller. With snapshots configured the restore runs
	// first, so a legitimate outage of any length stays within the
	// bound as long as a snapshot no more than MaxEpochSeek epochs old
	// survives on disk.
	MaxEpochSeek = 100_000
	// DefaultSnapshotInterval is how many epochs pass between snapshot
	// writes when Config.Snapshots is set but no interval is given: a
	// restart then replays at most that many epochs per peer.
	DefaultSnapshotInterval = 16
	// DefaultIdleTimeout bounds how long a serving connection may sit
	// between sessions before the agent gives up on it.
	DefaultIdleTimeout = 5 * time.Minute
)

// WorkloadFunc supplies the two directional workloads of one epoch, in
// the pair's A->B orientation. Both endpoints of a pair must return
// identical flows for the same epoch (the workload hash enforces it),
// and the function must be deterministic in the epoch index alone — it
// is also the replay source for epoch resync (SeekEpoch).
type WorkloadFunc = continuous.WorkloadFunc

// Peer configures one neighbor of the agent.
type Peer struct {
	// Name is the remote agent's name, matched against inbound Hellos.
	Name string
	// Side says which side of the pair's A->B oriented system this
	// agent is. SideA initiates sessions (and needs Dial); SideB serves
	// them.
	Side nexit.Side
	// Ctl drives the pair's continuous renegotiation. Its system must
	// be oriented with this agent on Side. The controller's Metric is
	// the pair's negotiation objective: it selects the evaluator built
	// each epoch, travels in the wire Hello, and must match the
	// neighbor's configuration (mismatches reject at session open).
	Ctl *continuous.Controller
	// Workloads derives the epoch workloads shared with the neighbor.
	Workloads WorkloadFunc
	// Dial opens the transport to the neighbor (required for SideA).
	// The agent caches the connection across epochs and redials — with
	// backoff — only after a failure.
	Dial func() (net.Conn, error)
}

// Config configures an Agent.
type Config struct {
	// Name identifies this agent in Hello frames and status output.
	Name string
	// MaxSessions bounds concurrent sessions, separately for the
	// initiated and the served direction (the two bounds are separate
	// so that mutually negotiating daemons cannot deadlock on each
	// other's limits). Zero selects runtime.GOMAXPROCS(0).
	MaxSessions int
	// Timeout bounds each wire exchange within a session
	// (nexitwire.DefaultTimeout when zero).
	Timeout time.Duration
	// DialBackoff is the first delay of the outbound connection retry
	// ladder (DefaultDialAttempts tries, the delay doubling per retry).
	DialBackoff time.Duration
	// IdleTimeout bounds the wait for the next session on a serving
	// connection (DefaultIdleTimeout when zero).
	IdleTimeout time.Duration
	// Snapshots, when non-nil, persists per-peer controller snapshots
	// (the agent's -state-dir): every SnapshotInterval epochs a peer's
	// state is captured under its session lock and written off the hot
	// path, registered peers restore from their newest usable snapshot
	// at startup, and epoch resyncs restore before replaying so a
	// restart costs O(epochs since the last snapshot), not O(lifetime).
	// Snapshot failures degrade recovery cost, never correctness: a
	// corrupt or missing snapshot falls back to an older one, then to
	// epoch-0 replay (DESIGN.md §11).
	Snapshots *snapshot.Store
	// SnapshotInterval is the epoch distance between snapshot writes
	// (DefaultSnapshotInterval when zero; ignored without Snapshots).
	SnapshotInterval int
	// Logf, when non-nil, receives diagnostic messages.
	Logf func(format string, args ...any)
}

// Agent is one ISP's negotiation daemon.
type Agent struct {
	cfg    Config
	outSem chan struct{}
	inSem  chan struct{}

	mu    sync.Mutex
	peers map[string]*peerState
	conns map[net.Conn]struct{} // inbound connections, for Close

	closed atomic.Bool
	wg     sync.WaitGroup // inbound connection handlers
	snapWG sync.WaitGroup // in-flight async snapshot writes

	// The counts that belong to no peer. Everything a peer's sessions
	// move is counted once, on that peer, and Status sums the peers
	// (DESIGN.md §10 names every metric).
	sessionsActive telemetry.Gauge
	refused        telemetry.Counter // Hellos naming no peer this agent serves
	dialRetries    telemetry.Counter
	snapshotSaves  telemetry.Counter

	// wire is the traffic folded from each connection's WireStats after
	// every session (Conn.TakeStats).
	wireMu sync.Mutex
	wire   WireStatus
}

// peerState is one neighbor's runtime state. mu serializes the peer's
// sessions and all access to its controller; statistics live under
// their own mutex so Status() snapshots never wait on an in-flight
// session (sessions hold mu for their whole — possibly slow — wire
// exchange).
type peerState struct {
	Peer
	initiate bool

	mu sync.Mutex
	// conn is the cached outbound connection (initiator only). Caching
	// the wire Conn rather than the raw net.Conn carries the session's
	// frame buffers across epochs (DESIGN.md §9). Sessions swap it under
	// mu; Close takes it without mu, which a stalled session holds.
	conn atomic.Pointer[nexitwire.Conn]
	// backoff is the next dial-retry delay. It escalates (doubling, up
	// to MaxDialBackoff) across failed attempts and epochs, and resets
	// only after a successful session, so one old failure cannot slow
	// every future redial but a persistent outage is not hammered.
	backoff time.Duration

	stats struct {
		sync.Mutex
		// lat is the peer's session-latency histogram
		// (agentd_session_seconds{peer=...}): wall time of each
		// successful epoch session, fast-forward replay included. Its
		// count is the peer's session count.
		lat      *telemetry.Histogram
		epochs   int
		ledger   int
		failures int64
		resyncs  int64
		// replayed counts epochs reconstructed by local replay across
		// all resyncs; with snapshots working it stays well below the
		// controller's lifetime epoch count (tail-only recovery — the
		// invariant the mesh recovery tests pin).
		replayed     int64
		snapRestores int64
		rounds       int64
		gainUs       int64
		gainPeer     int64
		lastStop     string
		lastErr      string
	}
}

// fail records a session failure.
func (p *peerState) fail(err error) {
	p.stats.Lock()
	defer p.stats.Unlock()
	p.stats.failures++
	p.stats.lastErr = err.Error()
}

// New builds an agent from the configuration.
func New(cfg Config) *Agent {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = runtime.GOMAXPROCS(0)
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = DefaultDialBackoff
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	return &Agent{
		cfg:    cfg,
		outSem: make(chan struct{}, cfg.MaxSessions),
		inSem:  make(chan struct{}, cfg.MaxSessions),
		peers:  make(map[string]*peerState),
		conns:  make(map[net.Conn]struct{}),
	}
}

// foldWire drains a connection's accumulated wire stats into the
// agent's. Called between sessions (the Conn discipline), so the agent
// absorbs one delta per session, not per frame.
func (a *Agent) foldWire(c *nexitwire.Conn) {
	st := c.TakeStats()
	if st == (nexitwire.WireStats{}) {
		return
	}
	a.wireMu.Lock()
	defer a.wireMu.Unlock()
	w := &a.wire
	w.FramesSent += st.FramesSent
	w.FramesRecv += st.FramesRecv
	w.BytesSent += st.BytesSent
	w.BytesRecv += st.BytesRecv
	w.HelloUs += st.HelloNanos / 1e3
	w.PrefsUs += st.PrefsNanos / 1e3
	w.ProposeUs += st.ProposeNanos / 1e3
	w.CommitUs += st.CommitNanos / 1e3
}

// Name returns the agent's name.
func (a *Agent) Name() string { return a.cfg.Name }

// AddPeer registers a neighbor. It must be called before Serve or
// RunEpoch involves the peer.
func (a *Agent) AddPeer(p Peer) error {
	switch {
	case p.Name == "":
		return fmt.Errorf("agentd: peer needs a name")
	case p.Ctl == nil:
		return fmt.Errorf("agentd: peer %s needs a controller", p.Name)
	case p.Workloads == nil:
		return fmt.Errorf("agentd: peer %s needs a workload source", p.Name)
	case p.Side == nexit.SideA && p.Dial == nil:
		return fmt.Errorf("agentd: peer %s: side A initiates and needs Dial", p.Name)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.peers[p.Name]; dup {
		return fmt.Errorf("agentd: duplicate peer %s", p.Name)
	}
	ps := &peerState{Peer: p, initiate: p.Side == nexit.SideA}
	ps.stats.lat = telemetry.NewHistogram(nil)
	a.peers[p.Name] = ps
	// A freshly registered peer resumes from its newest persisted
	// snapshot (a restarted daemon with -state-dir): the resync
	// handshake then only replays the tail since the snapshot instead
	// of the controller's whole lifetime. No snapshot, a corrupt store,
	// or a configuration mismatch all mean starting from wherever the
	// controller already is — usually epoch 0.
	if s := a.cfg.Snapshots; s != nil {
		if restored, err := ps.Ctl.RestoreLatest(maxInt/2, s.Peer(p.Name)); err != nil {
			a.logf("agentd %s: peer %s: snapshot restore: %v", a.cfg.Name, p.Name, err)
		} else if restored >= 0 {
			ps.restoredLocked()
			a.logf("agentd %s: peer %s restored from snapshot at epoch %d", a.cfg.Name, p.Name, restored)
		}
	}
	return nil
}

const maxInt = int(^uint(0) >> 1)

// restoredLocked counts a snapshot restore of the peer's controller and
// moves the peer's epoch and ledger to the restored state, whatever
// follows the restore (a refused or failed tail replay). Callers hold
// p.mu or own p exclusively.
func (p *peerState) restoredLocked() {
	p.stats.Lock()
	p.stats.snapRestores++
	p.stats.epochs = p.Ctl.EpochIndex()
	p.stats.ledger = p.Ctl.Ledger.Balance
	p.stats.Unlock()
}

func (a *Agent) timeout() time.Duration {
	if a.cfg.Timeout > 0 {
		return a.cfg.Timeout
	}
	return nexitwire.DefaultTimeout
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

// Serve accepts inbound connections on ln until the listener closes
// (return nil) or fails. Each connection is handled on its own
// goroutine and may carry many sessions; the agent dispatches every
// inbound Hello to the peer it names. The listener belongs to the
// caller; close it to stop accepting, then Close to drain.
func (a *Agent) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if a.closed.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		a.mu.Lock()
		if a.closed.Load() {
			a.mu.Unlock()
			conn.Close()
			return nil
		}
		a.conns[conn] = struct{}{}
		a.mu.Unlock()
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.handleConn(conn)
			a.mu.Lock()
			delete(a.conns, conn)
			a.mu.Unlock()
		}()
	}
}

// handleConn serves sessions on one inbound connection until EOF, idle
// timeout, or a session error.
func (a *Agent) handleConn(conn net.Conn) {
	defer conn.Close()
	// One wire Conn per transport connection: its frame buffers are
	// reused by every session the connection carries.
	c := nexitwire.NewConn(conn)
	for {
		hello, err := nexitwire.AcceptHelloConn(c, a.cfg.IdleTimeout)
		if err != nil {
			// EOF, or a read that Close cut short, is a clean end.
			if !errors.Is(err, io.EOF) && !a.closed.Load() {
				a.logf("agentd %s: inbound connection: %v", a.cfg.Name, err)
			}
			return
		}
		p := a.peer(hello.Name)
		if p == nil || p.initiate {
			a.refused.Inc()
			reason := fmt.Sprintf("agent %s is not configured to serve peer %q", a.cfg.Name, hello.Name)
			_ = nexitwire.RejectConn(c, a.timeout(), reason)
			a.foldWire(c)
			a.logf("agentd %s: %s", a.cfg.Name, reason)
			return
		}
		a.inSem <- struct{}{}
		err = a.serveSession(p, c, hello)
		<-a.inSem
		// One fold per session (success or failure): every frame the
		// serving side exchanged lands in the wire counters.
		a.foldWire(c)
		if err != nil {
			a.logf("agentd %s: session from %s: %v", a.cfg.Name, p.Name, err)
			return
		}
	}
}

// peer looks up a registered neighbor.
func (a *Agent) peer(name string) *peerState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peers[name]
}

// peerList snapshots the registered neighbors.
func (a *Agent) peerList() []*peerState {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*peerState, 0, len(a.peers))
	for _, p := range a.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// serveSession runs the responder side of one epoch: the peer's
// controller assembles the same table the initiator will propose over,
// the wire session supplies our preferences and audits the outcome, and
// the controller applies and settles the result.
//
// The Hello's version and metric are validated before anything else —
// the documented check order (DESIGN.md §7), and the guarantee that a
// mismatched peer gets its labelled version/metric reject without
// touching controller state. Then the epoch index (v3) is reconciled:
// a responder that is behind — it missed epochs to a failed session or
// a restart — fast-forwards by deterministic local replay (bounded by
// MaxEpochSeek) before serving, so the pair heals without operator
// intervention. A responder that is ahead cannot rewind; it rejects
// with the canonical epoch-skew reason so the initiator can
// fast-forward itself and retry.
func (a *Agent) serveSession(p *peerState, conn *nexitwire.Conn, hello *nexitwire.Hello) error {
	start := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	a.sessionsActive.Add(1)
	defer a.sessionsActive.Add(-1)

	// The epoch in the Hello moves controller state (the fast-forward),
	// so unlike the other universe checks — which ServeSessionConn re-runs
	// — version and metric must be vetted before the epoch is trusted.
	err := nexitwire.CheckHello(hello, string(p.Ctl.Metric))
	at := p.Ctl.EpochIndex()
	if err == nil && at > int(hello.Epoch) {
		err = &nexitwire.EpochSkewError{Initiator: int(hello.Epoch), Responder: at}
	}
	if err != nil {
		_ = nexitwire.RejectConn(conn, a.timeout(), err.Error())
		p.fail(err)
		return fmt.Errorf("agentd: rejected session from %s: %w", p.Name, err)
	}
	if at < int(hello.Epoch) {
		if err := a.seekLocked(p, int(hello.Epoch)); err != nil {
			_ = nexitwire.RejectConn(conn, a.timeout(), err.Error())
			return err
		}
	}

	_, err = a.runSession(p, conn, hello, start)
	return err
}

// runSession runs the wire session of the peer's current epoch in this
// agent's role — initiating it on conn, or serving the one hello opened
// on conn — as the negotiator of the controller's epoch, and folds a
// successful epoch into the peer's snapshots and statistics, its latency
// measured from start (so a resync replay or a dial counts).
// A failed session is recorded on the peer and leaves the controller as
// it was (continuous.Controller.EpochVia); conn is the caller's to drop.
// Callers hold p.mu.
func (a *Agent) runSession(p *peerState, conn *nexitwire.Conn, hello *nexitwire.Hello, start time.Time) (*continuous.EpochReport, error) {
	epoch := p.Ctl.EpochIndex()
	wAB, wBA := p.Workloads(epoch)
	var res *nexit.Result // the session's outcome, kept for the statistics
	negotiate := func(cfg nexit.Config, items []nexit.Item, defaults []int, numAlts int) (*nexit.Result, error) {
		var err error
		if p.initiate {
			ini := &nexitwire.Initiator{
				Name:    a.cfg.Name,
				Cfg:     cfg,
				Metric:  string(p.Ctl.Metric),
				Epoch:   epoch,
				Eval:    p.Ctl.NewEvaluator(p.Side),
				Timeout: a.timeout(),
			}
			res, err = ini.RunConn(conn, items, defaults, numAlts)
			return res, err
		}
		resp := &nexitwire.Responder{
			Name:     a.cfg.Name,
			Metric:   string(p.Ctl.Metric),
			Epoch:    epoch,
			Eval:     p.Ctl.NewEvaluator(p.Side),
			Items:    items,
			Defaults: defaults,
			NumAlts:  numAlts,
			Timeout:  a.timeout(),
		}
		res, err = resp.ServeSessionConn(conn, hello)
		return res, err
	}
	rep, err := p.Ctl.EpochVia(negotiate, wAB, wBA)
	if err != nil {
		p.fail(err)
		return nil, err
	}
	a.maybeSnapshotLocked(p)
	p.record(rep, res.Rounds, res.Stopped, time.Since(start))
	p.backoff = 0 // a healthy session clears the dial-backoff ladder
	return rep, nil
}

// RunEpoch drives one renegotiation epoch with every peer this agent
// initiates to, concurrently up to the session bound, and returns the
// per-peer epoch reports keyed by peer name. Peers this agent only
// serves are untouched (their epochs advance when their initiator
// calls). Errors are joined, one per failing peer; successful peers
// still report.
//
// RunEpoch is idempotent per epoch: a peer whose controller is already
// past the requested epoch is skipped (no session, no report), so a
// caller may safely re-drive an epoch after a partial failure and only
// the peers that actually missed it negotiate. A peer that is behind —
// this agent restarted — is fast-forwarded by deterministic local
// replay first; after a reported epoch skew (the responder is ahead)
// the peer may end up past the requested epoch, in which case its
// report carries the later epoch index.
func (a *Agent) RunEpoch(ctx context.Context, epoch int) (map[string]*continuous.EpochReport, error) {
	type outcome struct {
		peer string
		rep  *continuous.EpochReport
		err  error
	}
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		out = make([]outcome, 0)
	)
	for _, p := range a.peerList() {
		if !p.initiate {
			continue
		}
		wg.Add(1)
		go func(p *peerState) {
			defer wg.Done()
			select {
			case a.outSem <- struct{}{}:
			case <-ctx.Done():
				// A peer already past the epoch would have been skipped
				// anyway; cancellation of a no-op is not a failure.
				p.mu.Lock()
				done := p.Ctl.EpochIndex() > epoch
				p.mu.Unlock()
				if done {
					return
				}
				// A cancelled epoch is a counted, labelled failure like
				// any other, so it is visible in the status surface.
				err := fmt.Errorf("agentd: epoch %d with %s cancelled: %w", epoch, p.Name, ctx.Err())
				p.fail(err)
				mu.Lock()
				out = append(out, outcome{p.Name, nil, err})
				mu.Unlock()
				return
			}
			rep, err := a.negotiateEpoch(ctx, p, epoch)
			<-a.outSem
			mu.Lock()
			out = append(out, outcome{p.Name, rep, err})
			mu.Unlock()
		}(p)
	}
	wg.Wait()

	reports := make(map[string]*continuous.EpochReport, len(out))
	var errs []error
	for _, o := range out {
		if o.err != nil {
			errs = append(errs, fmt.Errorf("peer %s: %w", o.peer, o.err))
			continue
		}
		if o.rep != nil { // nil report: epoch already complete, skipped
			reports[o.peer] = o.rep
		}
	}
	return reports, errors.Join(errs...)
}

// NextEpoch returns the lowest epoch index any initiated peer has yet
// to run — the natural argument for the next RunEpoch call. A freshly
// restarted daemon returns 0 and heals through the resync handshake;
// pairs that resynced ahead are skipped by RunEpoch's idempotency until
// the lagging pairs catch up.
func (a *Agent) NextEpoch() int {
	next := -1
	for _, p := range a.peerList() {
		if !p.initiate {
			continue
		}
		p.mu.Lock()
		at := p.Ctl.EpochIndex()
		p.mu.Unlock()
		if next < 0 || at < next {
			next = at
		}
	}
	if next < 0 {
		return 0
	}
	return next
}

// negotiateEpoch runs the initiator side of one epoch against one peer.
// It is the initiator's half of the resync handshake: a controller
// behind the requested epoch (this daemon restarted) is fast-forwarded
// by local replay first, one already past it skips (idempotent retry),
// and a responder that reports itself ahead triggers a fast-forward to
// its epoch and a single retry.
func (a *Agent) negotiateEpoch(ctx context.Context, p *peerState, epoch int) (*continuous.EpochReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	a.sessionsActive.Add(1)
	defer a.sessionsActive.Add(-1)

	if at := p.Ctl.EpochIndex(); at > epoch {
		return nil, nil // already negotiated; idempotent skip
	} else if at < epoch {
		if err := a.seekLocked(p, epoch); err != nil {
			return nil, err
		}
	}
	rep, err := a.sessionLocked(ctx, p)
	if err == nil {
		return rep, nil
	}
	var skew *nexitwire.EpochSkewError
	if errors.As(err, &skew) && skew.Responder > epoch {
		// The responder lived through epochs we missed (we restarted and
		// were driven from scratch). Catch up locally and retry once at
		// its epoch; the report returned is for that later epoch.
		if serr := a.seekLocked(p, skew.Responder); serr != nil {
			return nil, serr
		}
		return a.sessionLocked(ctx, p)
	}
	return nil, err
}

// seekLocked fast-forwards the peer's controller to the given epoch:
// first a snapshot restore when a store is configured (jumping straight
// to the newest usable snapshot at or below the target), then
// deterministic local replay of the remaining tail, counting the resync
// and the epochs actually replayed. The target comes from the remote
// endpoint, so the replayed tail is bounded by MaxEpochSeek — a peer
// demanding an absurd fast-forward gets a labelled refusal, not hours
// of replay and an unrewindable controller. Callers hold p.mu.
func (a *Agent) seekLocked(p *peerState, epoch int) error {
	from := p.Ctl.EpochIndex()
	restored := -1
	if s := a.cfg.Snapshots; s != nil {
		var err error
		if restored, err = p.Ctl.RestoreLatest(epoch, s.Peer(p.Name)); err != nil {
			a.logf("agentd %s: resync with %s: snapshot restore: %v", a.cfg.Name, p.Name, err)
		} else if restored >= 0 {
			p.restoredLocked()
		}
	}
	tailFrom := p.Ctl.EpochIndex()
	if epoch-tailFrom > MaxEpochSeek {
		err := fmt.Errorf("agentd: resync with %s: epoch %d is %d epochs ahead of %d, beyond the replay bound %d",
			p.Name, epoch, epoch-tailFrom, tailFrom, MaxEpochSeek)
		p.fail(err)
		return err
	}
	if err := p.Ctl.SeekEpoch(epoch, p.Workloads); err != nil {
		err = fmt.Errorf("agentd: resync with %s: %w", p.Name, err)
		p.fail(err)
		return err
	}
	p.stats.Lock()
	p.stats.resyncs++
	p.stats.replayed += int64(epoch - tailFrom)
	p.stats.epochs = p.Ctl.EpochIndex()
	p.stats.ledger = p.Ctl.Ledger.Balance
	p.stats.Unlock()
	if restored >= 0 {
		a.logf("agentd %s: resynced peer %s from epoch %d to %d (snapshot to %d, replayed %d)",
			a.cfg.Name, p.Name, from, epoch, restored, epoch-tailFrom)
	} else {
		a.logf("agentd %s: resynced peer %s from epoch %d to %d", a.cfg.Name, p.Name, from, epoch)
	}
	return nil
}

// maybeSnapshotLocked persists the peer's state when its epoch index
// crosses a snapshot-interval boundary. The capture (a deep copy) runs
// under the session lock the caller already holds — it must, for a
// consistent cut — but the encode and disk write run on their own
// goroutine, off the hot path; Wait drains them. A failed write only
// costs future recovery speed, so it is logged, not propagated.
func (a *Agent) maybeSnapshotLocked(p *peerState) {
	s := a.cfg.Snapshots
	if s == nil {
		return
	}
	interval := a.cfg.SnapshotInterval
	if interval <= 0 {
		interval = DefaultSnapshotInterval
	}
	if idx := p.Ctl.EpochIndex(); idx == 0 || idx%interval != 0 {
		return
	}
	st := p.Ctl.Snapshot()
	a.snapWG.Add(1)
	go func() {
		defer a.snapWG.Done()
		if err := s.Save(p.Name, st); err != nil {
			a.logf("agentd %s: snapshot of peer %s at epoch %d: %v", a.cfg.Name, p.Name, st.Epoch, err)
			return
		}
		a.snapshotSaves.Inc()
	}()
}

// sessionLocked dials (or reuses) the peer's connection and initiates
// the wire session of the controller's current epoch on it, with the
// connection's failure bookkeeping. Callers hold p.mu.
func (a *Agent) sessionLocked(ctx context.Context, p *peerState) (*continuous.EpochReport, error) {
	start := time.Now()
	conn, err := a.ensureConnLocked(ctx, p)
	if err != nil {
		p.fail(err)
		return nil, err
	}
	rep, err := a.runSession(p, conn, nil, start)
	a.foldWire(conn) // drain the session's frames before any Close
	if err != nil {
		// The connection's session state is unknown; drop it so the next
		// epoch redials from scratch.
		conn.Close()
		p.conn.Store(nil)
		return nil, err
	}
	return rep, nil
}

// ensureConnLocked returns the peer's cached connection or dials a new
// one. The retry delay escalates across attempts and epochs (peerState
// .backoff) and the waits observe ctx, so cancellation — SIGINT in the
// daemon — interrupts the ladder instead of sleeping it out. A closed
// agent keeps no connection it dials. Callers hold p.mu.
func (a *Agent) ensureConnLocked(ctx context.Context, p *peerState) (*nexitwire.Conn, error) {
	if c := p.conn.Load(); c != nil {
		return c, nil
	}
	if p.Dial == nil {
		return nil, fmt.Errorf("agentd: peer %s has no dialer", p.Name)
	}
	if p.backoff <= 0 {
		p.backoff = a.cfg.DialBackoff
	}
	var lastErr error
	for attempt := 0; attempt < DefaultDialAttempts; attempt++ {
		if attempt > 0 {
			a.dialRetries.Inc()
			timer := time.NewTimer(p.backoff)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return nil, fmt.Errorf("agentd: dial %s: %w", p.Name, ctx.Err())
			}
			if p.backoff *= 2; p.backoff > MaxDialBackoff {
				p.backoff = MaxDialBackoff
			}
		}
		conn, err := p.Dial()
		if err == nil {
			c := nexitwire.NewConn(conn)
			p.conn.Store(c)
			if a.closed.Load() && p.conn.CompareAndSwap(c, nil) {
				// Close swept the peers before this connection was cached,
				// or ran before the dial.
				c.Close()
				return nil, fmt.Errorf("agentd: dial %s: agent closed", p.Name)
			}
			return c, nil
		}
		lastErr = err
		a.logf("agentd %s: dial %s attempt %d: %v", a.cfg.Name, p.Name, attempt+1, err)
	}
	return nil, fmt.Errorf("agentd: dial %s: gave up after %d attempts: %w", p.Name, DefaultDialAttempts, lastErr)
}

// record folds a successful epoch session and its latency into the
// peer's statistics. Callers hold p.mu (the controller snapshot
// requires it).
func (p *peerState) record(rep *continuous.EpochReport, rounds int, stopped nexit.StopReason, latency time.Duration) {
	epochs := p.Ctl.EpochIndex()
	ledger := p.Ctl.Ledger.Balance
	p.stats.Lock()
	defer p.stats.Unlock()
	p.stats.lat.Observe(latency.Seconds())
	p.stats.epochs = epochs
	p.stats.ledger = ledger
	p.stats.rounds += int64(rounds)
	if p.Side == nexit.SideA {
		p.stats.gainUs += int64(rep.GainA)
		p.stats.gainPeer += int64(rep.GainB)
	} else {
		p.stats.gainUs += int64(rep.GainB)
		p.stats.gainPeer += int64(rep.GainA)
	}
	if rep.Negotiated > 0 {
		p.stats.lastStop = stopped.String()
	}
}

// Close stops the agent: any inbound connections still open are closed
// and so are the cached outbound ones (which ends the remote neighbors'
// serving loops). Close does not wait — not even on a session stalled
// inside its wire exchange, whose connection it closes under it; call
// Wait after closing the agent's listener to drain in-flight handlers.
func (a *Agent) Close() error {
	a.closed.Store(true)
	a.mu.Lock()
	for conn := range a.conns {
		conn.Close()
	}
	a.mu.Unlock()
	for _, p := range a.peerList() {
		if c := p.conn.Swap(nil); c != nil {
			c.Close()
		}
	}
	return nil
}

// Wait blocks until every inbound connection handler has exited and
// every in-flight snapshot write has landed. Close the serving listener
// and the agent first.
func (a *Agent) Wait() {
	a.wg.Wait()
	a.snapWG.Wait()
}
