package nexitwire

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"time"

	"repro/internal/nexit"
)

// DefaultTimeout bounds each blocking wire exchange.
const DefaultTimeout = 30 * time.Second

// DefaultMetric is the objective assumed when an endpoint (or a v1
// Hello) leaves the metric unset — the paper's primary §5.1 distance
// metric. It matches continuous.MetricDistance by construction.
const DefaultMetric = "distance"

// metricName canonicalizes a possibly-empty metric label.
func metricName(m string) string {
	if m == "" {
		return DefaultMetric
	}
	return m
}

// EpochSkewError reports that a session's two endpoints are at
// different negotiation epochs. Its rendering is the canonical wire
// reason for an epoch-skew rejection: the receiving side parses it back
// into a typed error (errors.As) so a daemon can fast-forward to the
// responder's epoch and retry instead of failing forever.
type EpochSkewError struct {
	// Initiator and Responder are the two sides' epoch indices.
	Initiator, Responder int
}

// Error renders the canonical, parseable skew reason.
func (e *EpochSkewError) Error() string {
	return fmt.Sprintf("epoch skew: initiator at epoch %d, responder at epoch %d", e.Initiator, e.Responder)
}

// parseEpochSkew recovers a typed skew error from a peer's abort
// reason, when the reason is the canonical rendering above.
func parseEpochSkew(reason string) (*EpochSkewError, bool) {
	var e EpochSkewError
	n, err := fmt.Sscanf(reason, "epoch skew: initiator at epoch %d, responder at epoch %d", &e.Initiator, &e.Responder)
	if err != nil || n != 2 {
		return nil, false
	}
	return &e, true
}

// peerError surfaces a peer's abort reason, re-typing the canonical
// epoch-skew rendering so callers can errors.As it.
func peerError(reason string) error {
	if skew, ok := parseEpochSkew(reason); ok {
		return fmt.Errorf("nexitwire: peer error: %w", skew)
	}
	return fmt.Errorf("nexitwire: peer error: %s", reason)
}

// WorkloadHash fingerprints the negotiation universe (items, defaults,
// alternative count) so two agents configured differently fail fast at
// Hello time instead of negotiating nonsense.
//
// The value is 64-bit FNV-1a (hash/fnv's New64a) over each field as
// eight big-endian bytes, folded inline; it travels in the Hello, so
// the bytes hashed are part of the wire format.
func WorkloadHash(items []nexit.Item, defaults []int, numAlts int) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	put := func(v uint64) {
		for shift := 56; shift >= 0; shift -= 8 {
			h = (h ^ uint64(byte(v>>shift))) * prime64
		}
	}
	put(uint64(numAlts))
	put(uint64(len(items)))
	for i, it := range items {
		put(uint64(it.ID))
		put(uint64(it.Flow.Src))
		put(uint64(it.Flow.Dst))
		put(math.Float64bits(it.Flow.Size))
		put(uint64(it.Dir))
		put(uint64(defaults[i]))
	}
	return h
}

// SessionResult is what the responder learns from a completed session.
type SessionResult struct {
	Assign     []int
	GainA      int // initiator's cumulative disclosed gain
	GainB      int // responder's cumulative disclosed gain
	Rounds     int
	StopReason nexit.StopReason
}

// Initiator drives a negotiation session over a connection. It runs the
// contractually agreed round engine locally, fetching the responder's
// preferences and accept decisions over the wire.
type Initiator struct {
	Name string
	Cfg  nexit.Config
	// Metric names the negotiation objective carried in the Hello;
	// the responder must be configured for the same one (empty means
	// DefaultMetric). Eval must implement it.
	Metric string
	// Epoch is the negotiation epoch this session runs, carried in the
	// Hello (v3+). The responder must serve the same epoch; a skew is
	// rejected with a typed EpochSkewError so the behind side can
	// fast-forward deterministically and retry.
	Epoch int
	// Eval is the initiator's own evaluator (protocol side A).
	Eval nexit.Evaluator
	// Accept, when non-nil, decides the initiator's own accept/veto
	// choices; nil accepts everything (the paper's experimental mode).
	Accept func(p nexit.Proposal) bool
	// Timeout bounds each wire exchange (DefaultTimeout when zero).
	Timeout time.Duration
}

func (in *Initiator) timeout() time.Duration {
	if in.Timeout > 0 {
		return in.Timeout
	}
	return DefaultTimeout
}

// RunConn negotiates the items over c and returns the engine result.
// The responder must be configured with the same items, defaults, and
// alternative count.
//
// A connection may carry many sessions back to back: every RunConn
// opens with a fresh Hello and ends with Done, so a long-running agent
// wraps each peer connection in one Conn and reuses it, and its frame
// buffers, across negotiation epochs instead of redialing (the responder
// answers each Hello with AcceptHelloConn/ServeSessionConn in turn).
func (in *Initiator) RunConn(c *Conn, items []nexit.Item, defaults []int, numAlts int) (*nexit.Result, error) {
	if in.Cfg.PrefBound > 127 {
		return nil, fmt.Errorf("nexitwire: preference bound %d exceeds the wire format's int8 classes", in.Cfg.PrefBound)
	}
	s := c.s.reset(in.timeout())

	hash := WorkloadHash(items, defaults, numAlts)
	if err := s.sendEnc(MsgHello, appendHello(s.enc[:0], &Hello{
		Version:      Version,
		Name:         in.Name,
		NumAlts:      uint16(numAlts),
		NumItems:     uint32(len(items)),
		WorkloadHash: hash,
		Metric:       metricName(in.Metric),
		Epoch:        uint32(in.Epoch),
	})); err != nil {
		return nil, err
	}
	body, err := s.expect(MsgHelloAck)
	if err != nil {
		return nil, err
	}
	ack, err := decodeHello(body)
	if err != nil {
		return nil, err
	}
	if ack.Version != Version {
		return nil, s.abort(fmt.Errorf("nexitwire: peer version %d, want %d", ack.Version, Version))
	}
	if metricName(ack.Metric) != metricName(in.Metric) {
		return nil, s.abort(fmt.Errorf("nexitwire: metric mismatch: peer negotiates %q, we negotiate %q",
			metricName(ack.Metric), metricName(in.Metric)))
	}
	if int(ack.Epoch) != in.Epoch {
		skew := &EpochSkewError{Initiator: in.Epoch, Responder: int(ack.Epoch)}
		_ = s.abort(skew)
		return nil, fmt.Errorf("nexitwire: %w", skew)
	}
	// Re-check the universe symmetrically: a responder that skipped its
	// own validation cannot drag us into a mismatched session that
	// would only surface later as a framing or audit error.
	switch {
	case int(ack.NumAlts) != numAlts:
		return nil, s.abort(fmt.Errorf("nexitwire: peer acked %d alternatives, we have %d", ack.NumAlts, numAlts))
	case int(ack.NumItems) != len(items):
		return nil, s.abort(fmt.Errorf("nexitwire: peer acked %d items, we have %d", ack.NumItems, len(items)))
	case ack.WorkloadHash != hash:
		return nil, s.abort(fmt.Errorf("nexitwire: workload hash mismatch in ack"))
	}

	remote := &remoteEvaluator{s: s, numAlts: numAlts}
	cfg := in.Cfg
	cfg.BatchAcceptHook = func(batch []nexit.Proposal) int {
		// The remote agent ratifies every proposal: when it is the
		// acceptor this is the paper's veto; when the engine proposed on
		// its behalf, ratification confirms the simulated turn. The whole
		// planned run travels in one ProposeBatch frame and the responder
		// commits the prefix it accepts, which is why remoteEvaluator's
		// Commit has nothing to send.
		limit := len(batch)
		if remote.err != nil {
			// The session is already dead and the result will be
			// discarded (RunConn returns remote.err) — accept everything
			// so the engine winds down on the cheap all-accept path
			// instead of replanning after a veto per proposal.
			return limit
		}
		if in.Accept != nil {
			// The initiator's own accept policy vetoes proposals made on
			// the responder's turn before they are put on the wire; the
			// batch is truncated there so the responder never commits
			// past our own veto.
			for i := range batch {
				if batch[i].Proposer == nexit.SideB && !in.Accept(batch[i]) {
					limit = i
					break
				}
			}
		}
		if limit == 0 {
			return 0
		}
		accepted, err := remote.proposeBatch(batch[:limit])
		if err != nil {
			remote.err = err
			return limit // dead session: wind down, result is discarded
		}
		return accepted
	}

	res, err := nexit.Negotiate(cfg, in.Eval, remote, items, defaults, numAlts)
	if err != nil {
		_ = s.abort(err)
		return nil, err
	}
	if remote.err != nil {
		return nil, remote.err
	}

	done := &Done{
		Assign:     make([]uint16, len(res.Assign)),
		GainA:      int32(res.GainA),
		GainB:      int32(res.GainB),
		StopReason: uint8(res.Stopped),
		Rounds:     uint32(res.Rounds),
	}
	for i, a := range res.Assign {
		done.Assign[i] = uint16(a)
	}
	if err := s.sendEnc(MsgDone, appendDone(s.enc[:0], done)); err != nil {
		return nil, err
	}
	return res, nil
}

// remoteEvaluator proxies the responder's evaluator over the wire.
type remoteEvaluator struct {
	s       *session
	numAlts int
	err     error
	// scratch buffers reused across the session's wire calls. The rows
	// returned by Prefs alias prefRows; that is safe because the engine
	// clamps them into its own tables before the next call.
	req      PrefsRequest
	prefRows [][]int
	prefFlat []int
	batch    []AcceptRequest
}

// Prefs implements nexit.Evaluator. The returned rows are scratch,
// valid until the next Prefs call; the engine (the only caller) copies
// them immediately.
func (r *remoteEvaluator) Prefs(items []nexit.Item, defaults []int) [][]int {
	need := len(items) * r.numAlts
	if cap(r.prefFlat) < need {
		r.prefFlat = make([]int, need)
	}
	flat := r.prefFlat[:need]
	for i := range flat {
		flat[i] = 0
	}
	out := r.prefRows[:0]
	for i := 0; i < len(items); i++ {
		out = append(out, flat[i*r.numAlts:(i+1)*r.numAlts])
	}
	r.prefRows = out
	if r.err != nil {
		return out
	}
	req := &r.req
	req.ItemIDs = req.ItemIDs[:0]
	req.Defaults = req.Defaults[:0]
	for i, it := range items {
		req.ItemIDs = append(req.ItemIDs, uint32(it.ID))
		req.Defaults = append(req.Defaults, uint16(defaults[i]))
	}
	if err := r.s.sendEnc(MsgPrefsRequest, appendPrefsRequest(r.s.enc[:0], req)); err != nil {
		r.err = err
		return out
	}
	body, err := r.s.expect(MsgPrefsResponse)
	if err != nil {
		r.err = err
		return out
	}
	resp, err := decodePrefsResponse(body)
	if err != nil {
		r.err = err
		return out
	}
	if len(resp.Prefs) != len(items) {
		r.err = fmt.Errorf("nexitwire: peer sent %d pref rows for %d items", len(resp.Prefs), len(items))
		return out
	}
	for i, row := range resp.Prefs {
		if len(row) != r.numAlts {
			r.err = fmt.Errorf("nexitwire: peer sent %d classes for %d alternatives", len(row), r.numAlts)
			return out
		}
		for k, p := range row {
			out[i][k] = int(p)
		}
	}
	return out
}

// Commit implements nexit.Evaluator and sends nothing: RunConn always
// installs the BatchAcceptHook, so every commit the engine makes is the
// prefix of a ProposeBatch the responder accepted — and committed as it
// did — or belongs to a dead session whose result is discarded.
func (r *remoteEvaluator) Commit(nexit.Item, int) {}

// Revert implements nexit.Reverter, forwarding terminal unwinds so the
// responder's assignment view and gain accounting stay in sync.
func (r *remoteEvaluator) Revert(it nexit.Item, alt, def int) {
	if r.err != nil {
		return
	}
	if err := r.s.sendEnc(MsgRevert, appendRevert(r.s.enc[:0], &Revert{
		ItemID: uint32(it.ID), Alt: uint16(alt), Def: uint16(def),
	})); err != nil {
		r.err = err
	}
}

// proposeBatch submits a planned run of proposals and returns how many
// leading ones the responder accepted (and committed).
func (r *remoteEvaluator) proposeBatch(batch []nexit.Proposal) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	pb := r.batch[:0]
	for i := range batch {
		p := &batch[i]
		pb = append(pb, AcceptRequest{
			Round:         uint32(p.Round),
			ItemID:        uint32(p.ItemID),
			Alt:           uint16(p.Alt),
			PrefInitiator: int8(p.PrefA),
		})
	}
	r.batch = pb
	if err := r.s.sendEnc(MsgProposeBatch, appendProposeBatch(r.s.enc[:0], &ProposeBatch{Proposals: pb})); err != nil {
		return 0, err
	}
	body, err := r.s.expect(MsgBatchAccept)
	if err != nil {
		return 0, err
	}
	resp, err := decodeBatchAccept(body)
	if err != nil {
		return 0, err
	}
	if int(resp.Accepted) > len(batch) {
		return 0, fmt.Errorf("nexitwire: peer accepted %d of %d batched proposals", resp.Accepted, len(batch))
	}
	return int(resp.Accepted), nil
}

// Responder serves one side of a negotiation: it answers preference and
// accept queries from its private evaluator and tracks the committed
// assignment.
type Responder struct {
	Name string
	// Metric names the negotiation objective this responder serves
	// (empty means DefaultMetric). A Hello naming any other metric is
	// rejected with a labelled reason before the engine runs.
	Metric string
	// Epoch is the negotiation epoch this responder serves. A Hello
	// naming a different epoch is rejected with a typed EpochSkewError
	// (a daemon fast-forwards the behind side before it gets here; the
	// check is the last line of defense against a silent desync).
	Epoch int
	// Eval is the responder's evaluator (protocol side B).
	Eval nexit.Evaluator
	// Accept, when non-nil, decides accept/veto; nil accepts everything.
	Accept func(p AcceptRequest) bool
	// Timeout bounds each wire exchange (DefaultTimeout when zero).
	Timeout time.Duration

	// Items, Defaults, and NumAlts define the negotiation universe; they
	// must match the initiator's.
	Items    []nexit.Item
	Defaults []int
	NumAlts  int
}

func (r *Responder) timeout() time.Duration {
	if r.Timeout > 0 {
		return r.Timeout
	}
	return DefaultTimeout
}

// AcceptHelloConn reads the opening Hello of an inbound session without
// committing to a negotiation universe. A daemon serving several
// neighbors uses it to identify the calling peer (Hello.Name,
// Hello.WorkloadHash) before choosing which universe — and which
// Responder — handles the session; pass the hello on to
// Responder.ServeSessionConn on the same Conn to continue. A zero
// timeout selects DefaultTimeout. io.EOF is returned unwrapped when the
// peer closes the connection cleanly between sessions.
func AcceptHelloConn(c *Conn, timeout time.Duration) (*Hello, error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	s := c.s.reset(timeout)
	t, body, err := s.recv()
	if err != nil {
		return nil, err
	}
	if t != MsgHello {
		return nil, s.unexpected(t)
	}
	return decodeHello(body)
}

// RejectConn answers an inbound session with an error frame and reason;
// a daemon uses it when the Hello names a peer it is not configured for.
// A zero timeout selects DefaultTimeout.
func RejectConn(c *Conn, timeout time.Duration, reason string) error {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	s := c.s.reset(timeout)
	return s.sendEnc(MsgError, appendError(s.enc[:0], &ErrorMsg{Reason: reason}))
}

// ServeSessionConn handles one session whose opening Hello has already
// been read by AcceptHelloConn on the same Conn, and returns the final
// result: it validates the hello against the locally configured
// universe, then serves preference, batch and revert frames until Done.
// It may be called repeatedly on one Conn; each call consumes exactly one
// Hello...Done session.
func (r *Responder) ServeSessionConn(c *Conn, hello *Hello) (*SessionResult, error) {
	s := c.s.reset(r.timeout())
	wantHash := WorkloadHash(r.Items, r.Defaults, r.NumAlts)
	switch {
	case hello.Version != Version:
		return nil, s.abort(fmt.Errorf("nexitwire: peer version %d, want %d", hello.Version, Version))
	case metricName(hello.Metric) != metricName(r.Metric):
		return nil, s.abort(fmt.Errorf("nexitwire: metric mismatch: peer negotiates %q, we negotiate %q",
			metricName(hello.Metric), metricName(r.Metric)))
	case int(hello.Epoch) != r.Epoch:
		return nil, s.abort(&EpochSkewError{Initiator: int(hello.Epoch), Responder: r.Epoch})
	case int(hello.NumAlts) != r.NumAlts:
		return nil, s.abort(fmt.Errorf("nexitwire: peer has %d alternatives, we have %d", hello.NumAlts, r.NumAlts))
	case int(hello.NumItems) != len(r.Items):
		return nil, s.abort(fmt.Errorf("nexitwire: peer has %d items, we have %d", hello.NumItems, len(r.Items)))
	case hello.WorkloadHash != wantHash:
		return nil, s.abort(fmt.Errorf("nexitwire: workload hash mismatch"))
	}
	if err := s.sendEnc(MsgHelloAck, appendHello(s.enc[:0], &Hello{
		Version: Version, Name: r.Name,
		NumAlts: uint16(r.NumAlts), NumItems: uint32(len(r.Items)),
		WorkloadHash: wantHash,
		Metric:       metricName(r.Metric),
		Epoch:        uint32(r.Epoch),
	})); err != nil {
		return nil, err
	}

	assign := append([]int(nil), r.Defaults...)
	gainB := 0
	// lastPrefs remembers the classes most recently disclosed per item,
	// for accounting the cumulative gain as commits arrive. Evaluator
	// Prefs rows live on reusable scratch (see the nexit.Evaluator
	// ownership contract), so the classes are COPIED into this flat
	// session-owned buffer — a retained row pointer would be clobbered
	// by the next reassignment's Prefs call. Undisclosed or
	// out-of-range entries stay zero, matching the old map's "missing
	// row contributes nothing" accounting.
	lastPrefs := make([]int, len(r.Items)*r.NumAlts)
	lastSeen := make([]bool, len(r.Items))
	// Per-request scratch, reused across the session's serve loop.
	var (
		items    []nexit.Item
		defaults []int
		resp     PrefsResponse
		respFlat []int8
	)

	for {
		t, body, err := s.recv()
		if err != nil {
			return nil, err
		}
		switch t {
		case MsgPrefsRequest:
			req, err := decodePrefsRequest(body)
			if err != nil {
				return nil, err
			}
			items = items[:0]
			defaults = defaults[:0]
			for i, id := range req.ItemIDs {
				if int(id) >= len(r.Items) {
					return nil, s.abort(fmt.Errorf("nexitwire: peer referenced unknown item %d", id))
				}
				items = append(items, r.Items[id])
				defaults = append(defaults, int(req.Defaults[i]))
			}
			prefs := r.Eval.Prefs(items, defaults)
			if need := len(prefs) * r.NumAlts; cap(respFlat) < need {
				respFlat = make([]int8, need)
			}
			resp.Prefs = resp.Prefs[:0]
			for i, row := range prefs {
				out := respFlat[i*r.NumAlts : (i+1)*r.NumAlts]
				for k := range out {
					out[k] = 0
				}
				for k := 0; k < r.NumAlts && k < len(row); k++ {
					p := row[k]
					if p > 127 {
						p = 127
					}
					if p < -128 {
						p = -128
					}
					out[k] = int8(p)
				}
				resp.Prefs = append(resp.Prefs, out)
				id := items[i].ID
				keep := lastPrefs[id*r.NumAlts : (id+1)*r.NumAlts]
				for k := range keep {
					keep[k] = 0
				}
				copy(keep, row)
				lastSeen[id] = true
			}
			if err := s.sendEnc(MsgPrefsResponse, appendPrefsResponse(s.enc[:0], &resp)); err != nil {
				return nil, err
			}
		case MsgProposeBatch:
			pb, err := decodeProposeBatch(body)
			if err != nil {
				return nil, err
			}
			// Decide the run in order, committing each accepted proposal,
			// and stop at the first veto: the discarded tail was planned
			// assuming the vetoed proposal stood, so it is void.
			accepted := 0
			for i := range pb.Proposals {
				req := &pb.Proposals[i]
				if int(req.ItemID) >= len(r.Items) || int(req.Alt) >= r.NumAlts {
					return nil, s.abort(fmt.Errorf("nexitwire: batched proposal out of range"))
				}
				if r.Accept != nil && !r.Accept(*req) {
					break
				}
				assign[req.ItemID] = int(req.Alt)
				if lastSeen[req.ItemID] {
					gainB += lastPrefs[int(req.ItemID)*r.NumAlts+int(req.Alt)]
				}
				r.Eval.Commit(r.Items[req.ItemID], int(req.Alt))
				accepted++
			}
			if err := s.sendEnc(MsgBatchAccept, appendBatchAccept(s.enc[:0], &BatchAccept{Accepted: uint32(accepted)})); err != nil {
				return nil, err
			}
		case MsgRevert:
			c, err := decodeRevert(body)
			if err != nil {
				return nil, err
			}
			if int(c.ItemID) >= len(r.Items) || int(c.Alt) >= r.NumAlts || int(c.Def) >= r.NumAlts {
				return nil, s.abort(fmt.Errorf("nexitwire: revert out of range"))
			}
			if assign[c.ItemID] != int(c.Alt) {
				return nil, s.abort(fmt.Errorf("nexitwire: revert of item %d does not match committed alternative", c.ItemID))
			}
			assign[c.ItemID] = int(c.Def)
			if lastSeen[c.ItemID] {
				gainB -= lastPrefs[int(c.ItemID)*r.NumAlts+int(c.Alt)]
			}
			if rev, ok := r.Eval.(nexit.Reverter); ok {
				rev.Revert(r.Items[c.ItemID], int(c.Alt), int(c.Def))
			}
		case MsgDone:
			done, err := decodeDone(body)
			if err != nil {
				return nil, err
			}
			if len(done.Assign) != len(r.Items) {
				return nil, fmt.Errorf("nexitwire: done carries %d assignments for %d items", len(done.Assign), len(r.Items))
			}
			// Audit: the initiator's reported assignment must match the
			// commits we observed, and its claim of our gain must match
			// our own accounting.
			for i, a := range done.Assign {
				if int(a) != assign[i] {
					return nil, fmt.Errorf("nexitwire: assignment mismatch at item %d: peer says %d, we committed %d", i, a, assign[i])
				}
			}
			if int(done.GainB) != gainB {
				return nil, fmt.Errorf("nexitwire: peer reports our gain as %d, we account %d", done.GainB, gainB)
			}
			return &SessionResult{
				Assign: assign,
				GainA:  int(done.GainA),
				GainB:  gainB,
				Rounds: int(done.Rounds),

				StopReason: nexit.StopReason(done.StopReason),
			}, nil
		case MsgError:
			em, err := decodeError(body)
			if err != nil {
				return nil, err
			}
			return nil, peerError(em.Reason)
		default:
			return nil, s.unexpected(t)
		}
	}
}

// session wraps a connection with framed, deadline-bounded exchanges.
// Its buffers — the frame writer's output buffer, the encode scratch,
// and the read scratch — are reused across frames, and, when the
// session lives inside a Conn, across every session the connection
// carries. Received frame bodies alias rbuf and are only valid until
// the next recv; decoders copy everything they keep (the buffer-
// ownership contract, DESIGN.md §9).
type session struct {
	conn    net.Conn
	fw      frameWriter
	timeout time.Duration
	enc     []byte // outbound payload scratch (appendX builds on it)
	rbuf    []byte // inbound frame scratch (bodies alias it)

	// armedRead/armedWrite coarsen deadline re-arming: net.Conn
	// deadlines cost a timer update per call (net.Pipe allocates one),
	// so a deadline armed less than a quarter-timeout ago is kept. Every
	// exchange still completes or fails within [3/4, 1]x timeout.
	armedRead  time.Time
	armedWrite time.Time

	// stats accumulates frame/byte counts and per-phase wire time for
	// the connection's owner (Conn.TakeStats). Plain fields: one
	// session at a time means one writer.
	stats WireStats
}

// reset prepares the session for a (new) run of exchanges with the
// given timeout, keeping its buffers.
func (s *session) reset(timeout time.Duration) *session {
	if s.timeout != timeout {
		s.timeout = timeout
		s.armedRead, s.armedWrite = time.Time{}, time.Time{}
	}
	return s
}

func (s *session) send(t MsgType, payload []byte) error {
	now := time.Now()
	if now.Sub(s.armedWrite) > s.timeout>>2 {
		if err := s.conn.SetWriteDeadline(now.Add(s.timeout)); err != nil {
			return err
		}
		s.armedWrite = now
	}
	err := s.fw.writeFrame(t, payload)
	if err == nil {
		s.stats.observeSent(t, len(payload), time.Since(now))
	}
	return s.stallErr("send "+t.String(), err)
}

// sendEnc sends a payload built on the session's encode scratch (via
// the appendX encoders) and retains the grown buffer for the next
// message.
func (s *session) sendEnc(t MsgType, payload []byte) error {
	s.enc = payload[:0]
	return s.send(t, payload)
}

func (s *session) recv() (MsgType, []byte, error) {
	now := time.Now()
	if now.Sub(s.armedRead) > s.timeout>>2 {
		// net.Pipe refuses a deadline once either end is closed. The read
		// below cannot block then, and it tells the two apart: a peer that
		// hung up between sessions must surface as io.EOF.
		if err := s.conn.SetReadDeadline(now.Add(s.timeout)); err != nil && !errors.Is(err, io.ErrClosedPipe) {
			return 0, nil, err
		}
		s.armedRead = now
	}
	t, body, scratch, err := readFrameInto(s.conn, s.rbuf)
	s.rbuf = scratch
	if err == nil {
		s.stats.observeRecv(t, len(body), time.Since(now))
	}
	return t, body, s.stallErr("awaiting reply", err)
}

// stallErr labels deadline expiries with the exchange that stalled and
// the configured timeout, so "peer went silent mid-session" surfaces as
// more than a bare i/o error. errors.Is(err, os.ErrDeadlineExceeded)
// still holds on the result.
func (s *session) stallErr(op string, err error) error {
	if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("nexitwire: peer stalled (%s exceeded the %v exchange timeout): %w", op, s.timeout, err)
	}
	return err
}

// expect receives one frame and requires it to be of the given type. A
// peer abort (MsgError) surfaces as the peer's reason rather than a
// protocol violation.
func (s *session) expect(want MsgType) ([]byte, error) {
	t, body, err := s.recv()
	if err != nil {
		return nil, err
	}
	switch t {
	case want:
		return body, nil
	case MsgError:
		em, err := decodeError(body)
		if err != nil {
			return nil, err
		}
		return nil, peerError(em.Reason)
	default:
		return nil, s.unexpected(t)
	}
}

// unexpected reports a protocol violation.
func (s *session) unexpected(t MsgType) error {
	err := fmt.Errorf("nexitwire: unexpected %v frame", t)
	_ = s.abort(err)
	return err
}

// abort best-effort notifies the peer before failing.
func (s *session) abort(err error) error {
	_ = s.sendEnc(MsgError, appendError(s.enc[:0], &ErrorMsg{Reason: err.Error()}))
	return err
}

// Conn wraps a net.Conn with the reusable frame machinery — write
// buffer, encode scratch, read scratch — that would otherwise be
// reallocated for every session a long-lived connection carries. A
// daemon that keeps one connection per peer direction should create one
// Conn per connection and pass it to RunConn / AcceptHelloConn /
// ServeSessionConn. A Conn serves one session at a time, like the
// underlying protocol.
type Conn struct {
	s session
}

// NewConn wraps c. It does not take over lifecycle management: closing
// remains the caller's job (Close forwards for convenience).
func NewConn(c net.Conn) *Conn {
	return &Conn{s: session{conn: c, fw: frameWriter{w: c}}}
}

// Close closes the wrapped connection.
func (c *Conn) Close() error { return c.s.conn.Close() }
