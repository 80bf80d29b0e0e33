package nexitwire

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
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

// peerError decodes an Error frame the peer sent — both roles do it
// here — re-typing the canonical epoch-skew reason for errors.As.
func peerError(body []byte) error {
	em, err := decodeError(body)
	if err != nil {
		return err
	}
	if skew, ok := parseEpochSkew(em.Reason); ok {
		return fmt.Errorf("nexitwire: peer error: %w", skew)
	}
	return fmt.Errorf("nexitwire: peer error: %s", em.Reason)
}

// abort appends to out the Error frame telling the peer why the session
// failed; an epoch skew travels in its canonical rendering.
func abort(out []byte, err error) (MsgType, []byte) {
	reason := err.Error()
	if skew := (*EpochSkewError)(nil); errors.As(err, &skew) {
		reason = skew.Error()
	}
	return MsgError, appendError(out, &ErrorMsg{Reason: reason})
}

// unexpected reports a frame the session has no use for at this point.
func unexpected(t MsgType) error {
	return fmt.Errorf("nexitwire: unexpected %v frame", t)
}

// hungUp labels a peer's hang-up mid-session with what the session
// awaited; errors.Is(err, io.EOF) still holds. Other errors pass.
func hungUp(err error, awaiting string) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("nexitwire: peer closed the connection awaiting %s: %w", awaiting, err)
	}
	return err
}

// CheckHello vets a peer's Hello against this endpoint's protocol
// version and metric, in DESIGN.md §7's order. It is the one place
// either is compared: both roles run it on the Hello they receive, and
// a daemon runs it before it trusts the Hello's epoch.
func CheckHello(h *Hello, metric string) error {
	if h.Version != Version {
		return fmt.Errorf("nexitwire: peer version %d, want %d", h.Version, Version)
	}
	if metricName(h.Metric) != metricName(metric) {
		return fmt.Errorf("nexitwire: metric mismatch: peer negotiates %q, we negotiate %q",
			metricName(h.Metric), metricName(metric))
	}
	return nil
}

// newHello is the Hello, or HelloAck, an endpoint sends.
func newHello(name, metric string, epoch int, items []nexit.Item, defaults []int, numAlts int) Hello {
	return Hello{Version: Version, Name: name, NumAlts: uint16(numAlts), NumItems: uint32(len(items)),
		WorkloadHash: WorkloadHash(items, defaults, numAlts), Metric: metricName(metric), Epoch: uint32(epoch)}
}

// checkPeer vets the peer's Hello against ours in DESIGN.md §7's order:
// CheckHello, then the epoch (oriented by which side we are), the
// universe's shape and its workload hash.
func checkPeer(peer, ours *Hello, initiating bool) error {
	if err := CheckHello(peer, ours.Metric); err != nil {
		return err
	}
	if peer.Epoch != ours.Epoch {
		skew := &EpochSkewError{Initiator: int(peer.Epoch), Responder: int(ours.Epoch)}
		if initiating {
			skew.Initiator, skew.Responder = skew.Responder, skew.Initiator
		}
		return fmt.Errorf("nexitwire: %w", skew)
	}
	switch {
	case peer.NumAlts != ours.NumAlts:
		return fmt.Errorf("nexitwire: peer has %d alternatives, we have %d", peer.NumAlts, ours.NumAlts)
	case peer.NumItems != ours.NumItems:
		return fmt.Errorf("nexitwire: peer has %d items, we have %d", peer.NumItems, ours.NumItems)
	case peer.WorkloadHash != ours.WorkloadHash:
		return fmt.Errorf("nexitwire: workload hash mismatch")
	}
	return nil
}

// WorkloadHash fingerprints the negotiation universe (items, defaults,
// alternative count) so two agents configured differently fail fast at
// Hello time instead of negotiating nonsense.
//
// The value is 64-bit FNV-1a (hash/fnv's New64a) over each field as
// eight big-endian bytes; it travels in the Hello, so the bytes hashed
// are part of the wire format. fnvFold takes each field's runs of zero
// bytes in one step (DESIGN.md §9).
func WorkloadHash(items []nexit.Item, defaults []int, numAlts int) uint64 {
	h := uint64(fnvOffset64)
	h = fnvFold(h, uint64(numAlts))
	h = fnvFold(h, uint64(len(items)))
	for i, it := range items {
		h = fnvFold(h, uint64(it.ID))
		h = fnvFold(h, uint64(it.Flow.Src))
		h = fnvFold(h, uint64(it.Flow.Dst))
		h = fnvFold(h, math.Float64bits(it.Flow.Size))
		h = fnvFold(h, uint64(it.Dir))
		h = fnvFold(h, uint64(defaults[i]))
	}
	return h
}

// The 64-bit FNV-1a parameters, and fnvPowers[k] = fnvPrime64^k mod
// 2^64: the state's step over k zero bytes, since XOR with a zero byte
// is the identity.
const fnvOffset64, fnvPrime64 = 14695981039346656037, 1099511628211

var fnvPowers = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// fnvFold folds v's eight big-endian bytes into the FNV-1a state h. Its
// runs of leading and trailing zero bytes cost one multiply each, by
// fnvPowers; the result is exactly the byte-at-a-time fold's, because
// multiplication mod 2^64 is associative.
func fnvFold(h, v uint64) uint64 {
	if v == 0 {
		return h * fnvPowers[8]
	}
	lead, trail := bits.LeadingZeros64(v)>>3, bits.TrailingZeros64(v)>>3
	h *= fnvPowers[lead]
	for shift := 56 - 8*lead; shift >= 8*trail; shift -= 8 {
		h = (h ^ uint64(byte(v>>shift))) * fnvPrime64
	}
	return h * fnvPowers[trail]
}

// link carries the initiator's frames: a *session, or a responder run
// in-process in tests. send may keep payload's array as encode scratch;
// a received body is valid until the next recv.
type link interface {
	send(t MsgType, payload []byte) error
	recv() (MsgType, []byte, error)
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

// RunConn negotiates the items over c and returns the engine result.
// The responder must be configured with the same items, defaults, and
// alternative count. Every RunConn opens with a Hello and ends with
// Done, so one Conn carries a peer's sessions epoch after epoch (the
// responder answers each with AcceptHelloConn and ServeSessionConn).
func (in *Initiator) RunConn(c *Conn, items []nexit.Item, defaults []int, numAlts int) (*nexit.Result, error) {
	if in.Cfg.PrefBound > 127 {
		return nil, fmt.Errorf("nexitwire: preference bound %d exceeds the wire format's int8 classes", in.Cfg.PrefBound)
	}
	s := c.s.reset(in.Timeout)
	return in.run(s.ini.open(s, s.enc, numAlts), items, defaults, numAlts)
}

// run is the initiator's side of one session over r's link, and its one
// abort site: a failure the peer can still hear about is sent to it in
// an Error frame.
func (in *Initiator) run(r *remoteEvaluator, items []nexit.Item, defaults []int, numAlts int) (*nexit.Result, error) {
	res := in.negotiate(r, items, defaults, numAlts)
	if r.err == nil {
		return res, nil
	}
	if !r.gone {
		_ = r.l.send(abort(r.out[:0], r.err))
	}
	return nil, r.err
}

// negotiate runs the Hello exchange, the engine and the closing Done
// over r; it returns nil once r.err is set.
func (in *Initiator) negotiate(r *remoteEvaluator, items []nexit.Item, defaults []int, numAlts int) *nexit.Result {
	ours := newHello(in.Name, in.Metric, in.Epoch, items, defaults, numAlts)
	body := r.exchange(MsgHello, appendHello(r.out[:0], &ours), MsgHelloAck)
	if r.err != nil {
		return nil
	}
	// Re-check the ack symmetrically: a responder that skipped its own
	// validation cannot drag us into a mismatched session.
	ack, err := decodeHello(body)
	if err == nil {
		err = checkPeer(ack, &ours, true)
	}
	if err != nil {
		r.err = err
		return nil
	}

	if r.hook == nil {
		r.hook = r.acceptBatch
	}
	r.in = in
	cfg := in.Cfg
	cfg.BatchAcceptHook = r.hook
	res, err := nexit.Negotiate(cfg, in.Eval, r, items, defaults, numAlts)
	if err != nil && r.err == nil {
		r.err = err
	}
	if r.err != nil {
		return nil
	}
	r.assign = r.assign[:0]
	for _, a := range res.Assign {
		r.assign = append(r.assign, uint16(a))
	}
	r.exchange(MsgDone, appendDone(r.out[:0], &Done{Assign: r.assign, GainA: int32(res.GainA), GainB: int32(res.GainB),
		StopReason: uint8(res.Stopped), Rounds: uint32(res.Rounds)}), 0)
	return res
}

// acceptBatch is the engine's BatchAcceptHook. The remote agent
// ratifies every proposal (the paper's veto, or confirming a turn the
// engine simulated for it); the planned run travels in one ProposeBatch
// and the responder commits the prefix it accepts. The initiator's own
// Accept truncates the batch at its first veto of a responder-turn
// proposal before it goes on the wire. A dead session accepts
// everything: the all-accept path winds the engine down cheapest, and
// the result is discarded.
func (r *remoteEvaluator) acceptBatch(batch []nexit.Proposal) int {
	limit := len(batch)
	for i := range batch {
		if r.in.Accept != nil && r.err == nil && batch[i].Proposer == nexit.SideB && !r.in.Accept(batch[i]) {
			limit = i
			break
		}
	}
	if limit == 0 || r.err != nil {
		return limit
	}
	return r.proposeBatch(batch[:limit])
}

// remoteEvaluator proxies the responder's evaluator over the link. On
// a Conn it lives on the session, so its scratch serves every session
// the Conn carries; open readies it for the next one.
type remoteEvaluator struct {
	l       link
	out     []byte // encode scratch, handed to l.send and reused
	numAlts int
	in      *Initiator // the session's, for acceptBatch
	// err is the session's first failure; nothing is sent after it.
	// gone means it came from the link or the peer's own Error frame,
	// so there is no one left to tell.
	err  error
	gone bool
	// Scratch reused across wire calls. The rows returned by Prefs
	// alias prefRows; that is safe because the engine clamps them into
	// its own tables before the next call. hook is acceptBatch's method
	// value, made once.
	req      PrefsRequest
	resp     PrefsResponse
	respFlat []int8
	prefRows [][]int
	prefFlat []int
	batch    []AcceptRequest
	assign   []uint16
	hook     func([]nexit.Proposal) int
}

// open readies r for a session over l, building payloads on out, and
// keeps its scratch.
func (r *remoteEvaluator) open(l link, out []byte, numAlts int) *remoteEvaluator {
	r.l, r.out, r.numAlts, r.err, r.gone = l, out, numAlts, nil, false
	return r
}

// exchange sends one frame and, unless want is zero, returns the reply,
// which must be of type want. A failure lands in r.err, which callers
// check instead of the body.
func (r *remoteEvaluator) exchange(t MsgType, payload []byte, want MsgType) []byte {
	if r.err != nil {
		return nil
	}
	r.out = payload[:0]
	if err := r.l.send(t, payload); err != nil {
		r.err, r.gone = err, true
		return nil
	}
	if want == 0 {
		return nil
	}
	got, body, err := r.l.recv()
	switch {
	case err != nil:
		r.err, r.gone = hungUp(err, want.String()), true
	case got == MsgError:
		r.err, r.gone = peerError(body), true
	case got != want:
		r.err = unexpected(got)
	}
	return body
}

// Prefs implements nexit.Evaluator. The returned rows are scratch,
// valid until the next Prefs call; the engine (the only caller) copies
// them immediately. A dead session's rows are all zero.
func (r *remoteEvaluator) Prefs(items []nexit.Item, defaults []int) [][]int {
	na := r.numAlts
	if cap(r.prefFlat) < len(items)*na {
		r.prefFlat = make([]int, len(items)*na)
	}
	flat := r.prefFlat[:len(items)*na]
	clear(flat)
	rows := r.prefRows[:0]
	for i := range items {
		rows = append(rows, flat[i*na:(i+1)*na])
	}
	r.prefRows = rows
	if r.err != nil {
		return rows
	}
	r.req.ItemIDs, r.req.Defaults = r.req.ItemIDs[:0], r.req.Defaults[:0]
	for i, it := range items {
		r.req.ItemIDs = append(r.req.ItemIDs, uint32(it.ID))
		r.req.Defaults = append(r.req.Defaults, uint16(defaults[i]))
	}
	body := r.exchange(MsgPrefsRequest, appendPrefsRequest(r.out[:0], &r.req), MsgPrefsResponse)
	if r.err != nil {
		return rows
	}
	resp := &r.resp
	err := decodePrefsResponse(body, resp, &r.respFlat)
	switch {
	case err != nil:
		r.err = err
	case len(resp.Prefs) != len(items):
		r.err = fmt.Errorf("nexitwire: peer sent %d pref rows for %d items", len(resp.Prefs), len(items))
	case len(resp.Prefs) > 0 && len(resp.Prefs[0]) != na:
		r.err = fmt.Errorf("nexitwire: peer sent %d classes for %d alternatives", len(resp.Prefs[0]), na)
	default:
		for i, row := range resp.Prefs {
			for k, p := range row {
				rows[i][k] = int(p)
			}
		}
	}
	return rows
}

// Commit implements nexit.Evaluator and sends nothing: every commit the
// engine makes is the prefix of a ProposeBatch the responder accepted —
// and committed as it did — or belongs to a dead session.
func (r *remoteEvaluator) Commit(nexit.Item, int) {}

// Revert implements nexit.Reverter, forwarding terminal unwinds so the
// responder's assignment view and gain accounting stay in sync.
func (r *remoteEvaluator) Revert(it nexit.Item, alt, def int) {
	r.exchange(MsgRevert, appendRevert(r.out[:0], &Revert{
		ItemID: uint32(it.ID), Alt: uint16(alt), Def: uint16(def),
	}), 0)
}

// proposeBatch submits a planned run of proposals and returns how many
// leading ones the responder accepted (and committed); all of them when
// the session dies, so the engine winds down.
func (r *remoteEvaluator) proposeBatch(batch []nexit.Proposal) int {
	pb := r.batch[:0]
	for _, p := range batch {
		pb = append(pb, AcceptRequest{Round: uint32(p.Round), ItemID: uint32(p.ItemID), Alt: uint16(p.Alt), PrefInitiator: int8(p.PrefA)})
	}
	r.batch = pb
	body := r.exchange(MsgProposeBatch, appendProposeBatch(r.out[:0], &ProposeBatch{Proposals: pb}), MsgBatchAccept)
	if r.err != nil {
		return len(batch)
	}
	var resp BatchAccept
	err := decodeBatchAccept(body, &resp)
	if err == nil && int(resp.Accepted) > len(batch) {
		err = fmt.Errorf("nexitwire: peer accepted %d of %d batched proposals", resp.Accepted, len(batch))
	}
	if err != nil {
		r.err = err
		return len(batch)
	}
	return int(resp.Accepted)
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

// AcceptHelloConn reads the opening Hello of an inbound session without
// committing to a universe, so a daemon serving several neighbors can
// pick the Responder by Hello.Name; pass the hello on to
// Responder.ServeSessionConn on the same Conn. A zero timeout selects
// DefaultTimeout. io.EOF is returned unwrapped when the peer closes the
// connection cleanly between sessions.
func AcceptHelloConn(c *Conn, timeout time.Duration) (*Hello, error) {
	t, body, err := c.s.reset(timeout).recv()
	if err != nil {
		return nil, err
	}
	return openingHello(t, body)
}

// openingHello decodes a session's first frame, which must be a Hello.
func openingHello(t MsgType, body []byte) (*Hello, error) {
	if t != MsgHello {
		return nil, unexpected(t)
	}
	return decodeHello(body)
}

// RejectConn answers an inbound session with an error frame and reason;
// a daemon uses it when the Hello names a peer it is not configured for.
// A zero timeout selects DefaultTimeout.
func RejectConn(c *Conn, timeout time.Duration, reason string) error {
	s := c.s.reset(timeout)
	return s.send(MsgError, appendError(s.enc[:0], &ErrorMsg{Reason: reason}))
}

// ServeSessionConn serves one Hello...Done session whose Hello
// AcceptHelloConn has read on c, and returns the audited result. It may
// be called again on c for the next session. It is serving's I/O loop:
// it owns the deadlines, the stats and the buffers.
func (r *Responder) ServeSessionConn(c *Conn, hello *Hello) (*nexit.Result, error) {
	s := c.s.reset(r.Timeout)
	m := &s.srv
	t, reply, res, err := m.open(r, hello, s.enc[:0])
	for {
		if t != 0 {
			if serr := s.send(t, reply); serr != nil && err == nil {
				return nil, serr
			}
		}
		if err != nil || res != nil {
			return res, err
		}
		var body []byte
		if t, body, err = s.recv(); err != nil {
			return nil, m.hangup(err)
		}
		t, reply, res, err = m.step(t, body, s.enc[:0])
	}
}

// serving is the responder's side of one session as a state machine
// with no I/O and no clock: open answers the peer's Hello, and step
// consumes one received frame and returns the frame to send back (type
// zero for none), the result once Done passes the audit, or the error.
// step appends its reply to out and does not retain body.
//
// A failing step answers with an Error frame saying why — unless the
// frame was the peer's own Error — and the error is sticky: every later
// step returns it and touches nothing, the evaluator least of all.
//
// On a Conn a serving lives on the session: open starts each session
// afresh and keeps the scratch of the sessions before.
type serving struct {
	r     *Responder
	hello *Hello // the peer's Hello, until open has answered it
	err   error

	assign []int
	gainB  int
	// lastPrefs holds the classes most recently disclosed per item, for
	// accounting the gain as commits arrive; a row never disclosed is
	// zero and contributes nothing. Evaluator rows live on reusable
	// scratch (the nexit.Evaluator ownership contract), so they are
	// copied here, not retained.
	lastPrefs []int

	// Per-request scratch: decoded requests, the evaluator's arguments
	// and the response rows.
	req      PrefsRequest
	items    []nexit.Item
	defaults []int
	resp     PrefsResponse
	respFlat []int8
	batch    ProposeBatch
	done     Done
}

// open starts a session for r on the peer's Hello.
func (m *serving) open(r *Responder, h *Hello, out []byte) (MsgType, []byte, *nexit.Result, error) {
	m.r, m.hello, m.err, m.assign, m.gainB = r, h, nil, nil, 0
	return m.step(MsgHello, nil, out)
}

// hangup is the session's error when its frames stop arriving.
func (m *serving) hangup(err error) error {
	if m.err == nil {
		m.err = hungUp(err, "the initiator's next frame")
	}
	return m.err
}

// step consumes one received frame; see serving.
func (m *serving) step(t MsgType, body, out []byte) (MsgType, []byte, *nexit.Result, error) {
	if m.err != nil {
		return 0, nil, nil, m.err
	}
	reply, payload, res, err := m.apply(t, body, out)
	if err == nil {
		return reply, payload, res, nil
	}
	if m.err = err; t == MsgError {
		return 0, nil, nil, err
	}
	reply, payload = abort(out, err)
	return reply, payload, nil, err
}

// apply is step before its error handling.
func (m *serving) apply(t MsgType, body, out []byte) (MsgType, []byte, *nexit.Result, error) {
	r, na := m.r, m.r.NumAlts
	switch t {
	case MsgHello:
		if m.hello == nil {
			return 0, nil, nil, unexpected(t) // a Hello only opens a session
		}
		ours := newHello(r.Name, r.Metric, r.Epoch, r.Items, r.Defaults, na)
		if err := checkPeer(m.hello, &ours, false); err != nil {
			return 0, nil, nil, err
		}
		m.hello = nil
		m.assign = append([]int(nil), r.Defaults...)
		if cap(m.lastPrefs) < len(r.Items)*na {
			m.lastPrefs = make([]int, len(r.Items)*na)
		}
		m.lastPrefs = m.lastPrefs[:len(r.Items)*na]
		clear(m.lastPrefs)
		return MsgHelloAck, appendHello(out, &ours), nil, nil

	case MsgPrefsRequest:
		req := &m.req
		if err := decodePrefsRequest(body, req); err != nil {
			return 0, nil, nil, err
		}
		m.items, m.defaults = m.items[:0], m.defaults[:0]
		for i, id := range req.ItemIDs {
			if int(id) >= len(r.Items) || int(req.Defaults[i]) >= na {
				return 0, nil, nil, fmt.Errorf("nexitwire: prefs request for item %d, default %d out of range", id, req.Defaults[i])
			}
			m.items = append(m.items, r.Items[id])
			m.defaults = append(m.defaults, int(req.Defaults[i]))
		}
		prefs := r.Eval.Prefs(m.items, m.defaults)
		if cap(m.respFlat) < len(prefs)*na {
			m.respFlat = make([]int8, len(prefs)*na)
		}
		m.resp.Prefs = m.resp.Prefs[:0]
		for i, row := range prefs {
			cls := m.respFlat[i*na : (i+1)*na]
			keep := m.lastPrefs[m.items[i].ID*na : (m.items[i].ID+1)*na]
			clear(keep)
			copy(keep, row)
			for k := range cls {
				cls[k] = int8(max(-128, min(127, keep[k])))
			}
			m.resp.Prefs = append(m.resp.Prefs, cls)
		}
		return MsgPrefsResponse, appendPrefsResponse(out, &m.resp), nil, nil

	case MsgProposeBatch:
		pb := &m.batch
		if err := decodeProposeBatch(body, pb); err != nil {
			return 0, nil, nil, err
		}
		// Decide the run in order, committing each accepted proposal,
		// and stop at the first veto: the discarded tail was planned
		// assuming the vetoed proposal stood, so it is void.
		accepted := 0
		for _, p := range pb.Proposals {
			if int(p.ItemID) >= len(r.Items) || int(p.Alt) >= na {
				return 0, nil, nil, fmt.Errorf("nexitwire: batched proposal out of range")
			}
			if r.Accept != nil && !r.Accept(p) {
				break
			}
			m.assign[p.ItemID] = int(p.Alt)
			m.gainB += m.lastPrefs[int(p.ItemID)*na+int(p.Alt)]
			r.Eval.Commit(r.Items[p.ItemID], int(p.Alt))
			accepted++
		}
		return MsgBatchAccept, appendBatchAccept(out, &BatchAccept{Accepted: uint32(accepted)}), nil, nil

	case MsgRevert:
		var c Revert
		if err := decodeRevert(body, &c); err != nil {
			return 0, nil, nil, err
		}
		if int(c.ItemID) >= len(r.Items) || int(c.Alt) >= na || int(c.Def) >= na {
			return 0, nil, nil, fmt.Errorf("nexitwire: revert out of range")
		}
		if m.assign[c.ItemID] != int(c.Alt) {
			return 0, nil, nil, fmt.Errorf("nexitwire: revert of item %d does not match committed alternative", c.ItemID)
		}
		m.assign[c.ItemID] = int(c.Def)
		m.gainB -= m.lastPrefs[int(c.ItemID)*na+int(c.Alt)]
		if rev, ok := r.Eval.(nexit.Reverter); ok {
			rev.Revert(r.Items[c.ItemID], int(c.Alt), int(c.Def))
		}
		return 0, nil, nil, nil

	case MsgDone:
		done := &m.done
		if err := decodeDone(body, done); err != nil {
			return 0, nil, nil, err
		}
		if len(done.Assign) != len(r.Items) {
			return 0, nil, nil, fmt.Errorf("nexitwire: done carries %d assignments for %d items", len(done.Assign), len(r.Items))
		}
		// Audit: the initiator's reported assignment must match the
		// commits we observed, and its claim of our gain our accounting.
		for i, a := range done.Assign {
			if int(a) != m.assign[i] {
				return 0, nil, nil, fmt.Errorf("nexitwire: assignment mismatch at item %d: peer says %d, we committed %d", i, a, m.assign[i])
			}
		}
		if int(done.GainB) != m.gainB {
			return 0, nil, nil, fmt.Errorf("nexitwire: peer reports our gain as %d, we account %d", done.GainB, m.gainB)
		}
		return 0, nil, &nexit.Result{
			Assign: m.assign, GainA: int(done.GainA), GainB: m.gainB,
			Rounds: int(done.Rounds), Stopped: nexit.StopReason(done.StopReason),
		}, nil

	case MsgError:
		return 0, nil, nil, peerError(body)
	}
	return 0, nil, nil, unexpected(t)
}

// session wraps a connection with framed, deadline-bounded exchanges.
// Its buffers live as long as its Conn. Received frame bodies alias rbuf
// until the next recv; decoders copy what they keep (DESIGN.md §9).
type session struct {
	conn    net.Conn
	fw      frameWriter
	timeout time.Duration
	enc     []byte // outbound payload scratch (appendX builds on it)
	rbuf    []byte // inbound frame scratch (bodies alias it)

	// ini and srv hold the initiator's and the responder's per-session
	// state; keeping them here keeps their scratch for the next session.
	ini remoteEvaluator
	srv serving

	// armedRead/armedWrite coarsen deadline re-arming: net.Conn
	// deadlines cost a timer update per call (net.Pipe allocates one),
	// so a deadline armed less than a quarter-timeout ago is kept. Every
	// exchange still completes or fails within [3/4, 1]x timeout.
	armedRead  time.Time
	armedWrite time.Time

	// stats accumulates for Conn.TakeStats; one session at a time means
	// one writer.
	stats WireStats
}

// reset prepares the session for a (new) run of exchanges with the
// given timeout (DefaultTimeout when zero), keeping its buffers.
func (s *session) reset(timeout time.Duration) *session {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	if s.timeout != timeout {
		s.timeout = timeout
		s.armedRead, s.armedWrite = time.Time{}, time.Time{}
	}
	return s
}

// send writes one frame. Its payload is normally built on the encode
// scratch by an appendX encoder; the grown array is kept as the scratch.
func (s *session) send(t MsgType, payload []byte) error {
	s.enc = payload[:0]
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
	return s.stallErr(t, err)
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
	return t, body, s.stallErr(0, err)
}

// stallErr labels deadline expiries with the exchange that stalled —
// sending a frame of type sent, or awaiting a reply when sent is zero —
// and the configured timeout, so "peer went silent mid-session"
// surfaces as more than a bare i/o error. errors.Is(err,
// os.ErrDeadlineExceeded) still holds on the result.
func (s *session) stallErr(sent MsgType, err error) error {
	if err == nil || !errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	op := "awaiting reply"
	if sent != 0 {
		op = "send " + sent.String()
	}
	return fmt.Errorf("nexitwire: peer stalled (%s exceeded the %v exchange timeout): %w", op, s.timeout, err)
}

// Conn wraps a net.Conn with the frame buffers every session it carries
// reuses; a daemon keeps one per peer connection and passes it to
// RunConn / AcceptHelloConn / ServeSessionConn. A Conn serves one
// session at a time, like the underlying protocol.
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
