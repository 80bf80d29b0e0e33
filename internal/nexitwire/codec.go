// Package nexitwire implements the out-of-band negotiation-agent
// protocol of the paper's §6 (Figure 12): negotiation agents sit on top
// of each ISP's routing infrastructure, exchange opaque preference
// classes over a TCP connection, and drive the Nexit protocol to an
// agreed assignment that is then pushed into the routing state.
//
// The protocol is asymmetric, like a BGP session: the initiator runs the
// contractually agreed deterministic round engine (internal/nexit) and
// the responder serves its private preferences and accept/veto decisions
// over the wire. The responder audits the closing Done against the
// commits and reverts it observed — a mis-computing (or cheating)
// initiator is caught.
//
// Wire format: length-prefixed frames over any net.Conn. Each frame is
//
//	uint32 length (big endian, excludes itself)  |  uint8 type  |  payload
//
// All multi-byte integers are big endian. Preference classes are int8
// (the paper's P=10 fits comfortably).
//
// Sessions are metric-generic: the Hello names the objective being
// negotiated (distance, bandwidth, Fortz–Thorup, …) and both endpoints
// must agree or the responder rejects the session at open with a
// labelled Error frame. Together with the version and workload-hash
// checks this is the invariant the daemon layer leans on: a session
// either runs the exact universe both sides expect, or fails fast
// before either controller advances an epoch — never a silent desync.
// DESIGN.md §7 documents the full wire/metric contract.
package nexitwire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Protocol constants.
const (
	// Version is the protocol version carried in Hello frames. The
	// compat rule (DESIGN.md §7): the Hello's fixed prefix through
	// WorkloadHash never changes shape, version-gated fields are only
	// ever appended (v2 added Metric, v3 added Epoch), and both
	// endpoints require an exact version match — a Hello from a
	// different version decodes far enough to read its version and is
	// then rejected with a labelled Error frame, never answered with a
	// desynced session.
	//
	// Version history: 1 = original framing; 2 = metric negotiation
	// (Hello carries the named objective, mismatches reject cleanly);
	// 3 = epoch resync (Hello carries the initiator's epoch index so a
	// restarted or lagging endpoint can fast-forward instead of staying
	// skewed forever); 4 = batched proposals (ProposeBatch/BatchAccept
	// collapse per-item accept+commit round trips into one exchange per
	// run of proposals).
	Version = 4
	// MaxFrameSize bounds incoming frames; a peer advertising more is
	// rejected rather than buffered (defense against resource
	// exhaustion, and no legitimate frame approaches it).
	MaxFrameSize = 16 << 20
)

// MsgType identifies a frame's payload.
type MsgType uint8

// Frame types.
const (
	MsgHello MsgType = iota + 1
	MsgHelloAck
	MsgPrefsRequest
	MsgPrefsResponse
	// 5, 6 and 7 were v3's per-item accept-request, accept-response and
	// commit. No v4 peer sends them; the numbers stay reserved and are
	// never reused, and a frame carrying one is an unexpected frame.
	_
	_
	_
	MsgRevert
	MsgDone
	MsgError
	// v4 batched frames, appended per the append-only compat rule.
	MsgProposeBatch
	MsgBatchAccept
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello-ack"
	case MsgPrefsRequest:
		return "prefs-request"
	case MsgPrefsResponse:
		return "prefs-response"
	case MsgRevert:
		return "revert"
	case MsgDone:
		return "done"
	case MsgError:
		return "error"
	case MsgProposeBatch:
		return "propose-batch"
	case MsgBatchAccept:
		return "batch-accept"
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Hello opens a session. Both agents must agree on the negotiation
// universe — the number of alternatives and items, a hash of the
// workload, and (since v2) the named metric being negotiated — so that
// mismatched configurations fail fast with a labelled reason.
type Hello struct {
	Version      uint16
	Name         string // agent name, diagnostic only
	NumAlts      uint16
	NumItems     uint32
	WorkloadHash uint64
	// Metric names the negotiation objective (v2+; empty in v1 Hellos,
	// which DefaultMetric interprets). Both endpoints must agree, or
	// the responder rejects the session at open.
	Metric string
	// Epoch is the index of the negotiation epoch this session runs
	// (v3+; zero in older Hellos). It is the resync handshake: a
	// responder that is behind fast-forwards by deterministic local
	// replay before serving, and a responder that is ahead rejects with
	// an EpochSkewError naming both indices so the initiator can
	// fast-forward itself and retry — a restarted daemon rejoins the
	// mesh without operator intervention (DESIGN.md §7).
	Epoch uint32
}

// PrefsRequest asks the responder for its preference classes over the
// listed items (identified by negotiation item ID), with the default
// alternative of each.
type PrefsRequest struct {
	ItemIDs  []uint32
	Defaults []uint16
}

// PrefsResponse carries the responder's preference classes: one row per
// requested item, one int8 class per alternative.
type PrefsResponse struct {
	Prefs [][]int8
}

// AcceptRequest is one proposal put to the responder: an element of a
// ProposeBatch, and the argument of Responder.Accept.
type AcceptRequest struct {
	Round  uint32
	ItemID uint32
	Alt    uint16
	// PrefInitiator is the initiator's disclosed class for the proposed
	// alternative (the responder already knows its own).
	PrefInitiator int8
}

// Revert informs the responder that the terminal unwind moved an item
// back to its default alternative.
type Revert struct {
	ItemID uint32
	Alt    uint16 // the alternative being undone
	Def    uint16 // the default the item returns to
}

// Done closes the session with the final assignment and the initiator's
// view of the transcript for verification.
type Done struct {
	Assign     []uint16
	GainA      int32
	GainB      int32
	StopReason uint8
	Rounds     uint32
}

// ErrorMsg aborts the session with a reason.
type ErrorMsg struct {
	Reason string
}

// ProposeBatch (v4) carries a run of proposals the initiator's engine
// would make if each preceding one is accepted. The responder decides
// them in order, committing each one it accepts, and stops at its first
// veto, discarding the tail (those proposals were planned assuming the
// vetoed one stood, so they are void).
type ProposeBatch struct {
	Proposals []AcceptRequest
}

// BatchAccept answers a ProposeBatch: the responder accepted (and
// committed) the first Accepted proposals. Accepted < len(Proposals)
// means proposal [Accepted] was vetoed and the rest discarded.
type BatchAccept struct {
	Accepted uint32
}

// frameWriter serializes frames onto a writer.
type frameWriter struct {
	w   io.Writer
	buf []byte
}

func (fw *frameWriter) writeFrame(t MsgType, payload []byte) error {
	n := 1 + len(payload)
	if cap(fw.buf) < 4+n {
		fw.buf = make([]byte, 4+n)
	}
	b := fw.buf[:4+n]
	binary.BigEndian.PutUint32(b, uint32(n))
	b[4] = byte(t)
	copy(b[5:], payload)
	_, err := fw.w.Write(b)
	return err
}

// readFrameInto reads one frame from r, reusing scratch as the read
// buffer when it is large enough; the length prefix is read into it too,
// so a frame costs no allocation once scratch has grown. It returns the
// (possibly grown) scratch for the caller to keep for the next frame.
// The returned body ALIASES scratch: it is valid only until the next
// readFrameInto call with the same buffer, and decoders must copy what
// they keep (every decoder in this package does; alias_test.go pins it).
// The MaxFrameSize guard runs before any allocation, so a corrupt or
// hostile length prefix cannot make us buffer unbounded memory.
func readFrameInto(r io.Reader, scratch []byte) (MsgType, []byte, []byte, error) {
	if cap(scratch) < 4 {
		scratch = make([]byte, 4)
	}
	hdr := scratch[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, scratch, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return 0, nil, scratch, fmt.Errorf("nexitwire: empty frame")
	}
	if n > MaxFrameSize {
		return 0, nil, scratch, fmt.Errorf("nexitwire: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(scratch)) < n {
		scratch = make([]byte, n)
	}
	body := scratch[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, scratch, err
	}
	return MsgType(body[0]), body[1:], scratch, nil
}

// --- payload encoding ------------------------------------------------

// enc is a tiny append-based encoder.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.BigEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) i8(v int8)    { e.b = append(e.b, byte(v)) }
func (e *enc) str(s string) {
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
}

// dec is the matching decoder; it records the first error and returns
// zero values afterwards.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("nexitwire: truncated payload")
	}
}
func (d *dec) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}
func (d *dec) u16() uint16 {
	if d.err != nil || len(d.b) < 2 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}
func (d *dec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}
func (d *dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}
func (d *dec) i8() int8 { return int8(d.u8()) }
func (d *dec) str() string {
	n := int(d.u16())
	if d.err != nil || len(d.b) < n {
		d.fail()
		return ""
	}
	v := string(d.b[:n])
	d.b = d.b[n:]
	return v
}
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("nexitwire: %d trailing bytes in payload", len(d.b))
	}
	return nil
}

// Message marshaling. A decoder writes into a caller-owned message and
// reuses its slices' arrays (a session keeps one of each on its Conn),
// except decodeHello and decodeError, which a session runs at most once;
// what any decoder keeps is copied out of b, never aliased.

func appendHello(b []byte, h *Hello) []byte {
	e := enc{b: b}
	e.u16(h.Version)
	e.str(h.Name)
	e.u16(h.NumAlts)
	e.u32(h.NumItems)
	e.u64(h.WorkloadHash)
	if h.Version >= 2 {
		e.str(h.Metric)
	}
	if h.Version >= 3 {
		e.u32(h.Epoch)
	}
	return e.b
}

func decodeHello(b []byte) (*Hello, error) {
	d := dec{b: b}
	h := &Hello{
		Version:      d.u16(),
		Name:         d.str(),
		NumAlts:      d.u16(),
		NumItems:     d.u32(),
		WorkloadHash: d.u64(),
	}
	if h.Version >= 2 {
		h.Metric = d.str()
	}
	if h.Version >= 3 {
		h.Epoch = d.u32()
	}
	if h.Version > Version {
		// A newer peer may have appended fields we do not know. Keep
		// what we parsed — without insisting on an empty remainder —
		// so the caller's version check can reject with a clean,
		// labelled reason instead of a framing error.
		if d.err != nil {
			return nil, d.err
		}
		return h, nil
	}
	return h, d.done()
}

func appendPrefsRequest(b []byte, m *PrefsRequest) []byte {
	e := enc{b: b}
	e.u32(uint32(len(m.ItemIDs)))
	for i := range m.ItemIDs {
		e.u32(m.ItemIDs[i])
		e.u16(m.Defaults[i])
	}
	return e.b
}

func decodePrefsRequest(b []byte, m *PrefsRequest) error {
	d := dec{b: b}
	n := int(d.u32())
	if d.err != nil {
		return d.err
	}
	if n > len(b)/6+1 {
		return fmt.Errorf("nexitwire: prefs request claims %d items", n)
	}
	m.ItemIDs, m.Defaults = m.ItemIDs[:0], m.Defaults[:0]
	for i := 0; i < n; i++ {
		m.ItemIDs = append(m.ItemIDs, d.u32())
		m.Defaults = append(m.Defaults, d.u16())
	}
	return d.done()
}

func appendPrefsResponse(b []byte, m *PrefsResponse) []byte {
	e := enc{b: b}
	e.u32(uint32(len(m.Prefs)))
	if len(m.Prefs) > 0 {
		e.u16(uint16(len(m.Prefs[0])))
		for _, row := range m.Prefs {
			for _, p := range row {
				e.i8(p)
			}
		}
	} else {
		e.u16(0)
	}
	return e.b
}

// decodePrefsResponse decodes b into m, whose rows slice *flat, one
// flat table grown as needed: a response costs no allocation once the
// table has reached its size.
func decodePrefsResponse(b []byte, m *PrefsResponse, flat *[]int8) error {
	d := dec{b: b}
	rows := int(d.u32())
	cols := int(d.u16())
	if d.err != nil {
		return d.err
	}
	// Guard allocations against lying headers: every row costs at least
	// max(cols, 1) payload bytes' worth of memory. The encoder writes a
	// column count exactly when there are rows, so a response with rows
	// but no columns, or columns but no rows, is not one it made.
	if rows > len(b) || (rows > 0) != (cols > 0) || (cols > 0 && rows > len(b)/cols) {
		return fmt.Errorf("nexitwire: prefs response claims %dx%d classes", rows, cols)
	}
	if cap(*flat) < rows*cols {
		*flat = make([]int8, rows*cols)
	}
	cls := (*flat)[:rows*cols]
	for i := range cls {
		cls[i] = d.i8()
	}
	m.Prefs = m.Prefs[:0]
	for i := 0; i < rows; i++ {
		m.Prefs = append(m.Prefs, cls[i*cols:(i+1)*cols:(i+1)*cols])
	}
	return d.done()
}

func appendRevert(b []byte, m *Revert) []byte {
	e := enc{b: b}
	e.u32(m.ItemID)
	e.u16(m.Alt)
	e.u16(m.Def)
	return e.b
}

func decodeRevert(b []byte, m *Revert) error {
	d := dec{b: b}
	*m = Revert{ItemID: d.u32(), Alt: d.u16(), Def: d.u16()}
	return d.done()
}

func appendDone(b []byte, m *Done) []byte {
	e := enc{b: b}
	e.u32(uint32(len(m.Assign)))
	for _, a := range m.Assign {
		e.u16(a)
	}
	e.u32(uint32(m.GainA))
	e.u32(uint32(m.GainB))
	e.u8(m.StopReason)
	e.u32(m.Rounds)
	return e.b
}

func decodeDone(b []byte, m *Done) error {
	d := dec{b: b}
	n := int(d.u32())
	if d.err != nil {
		return d.err
	}
	if n > len(b)/2 {
		return fmt.Errorf("nexitwire: done claims %d assignments", n)
	}
	m.Assign = m.Assign[:0]
	for i := 0; i < n; i++ {
		m.Assign = append(m.Assign, d.u16())
	}
	m.GainA = int32(d.u32())
	m.GainB = int32(d.u32())
	m.StopReason = d.u8()
	m.Rounds = d.u32()
	return d.done()
}

func appendError(b []byte, m *ErrorMsg) []byte {
	e := enc{b: b}
	e.str(m.Reason)
	return e.b
}

func decodeError(b []byte) (*ErrorMsg, error) {
	d := dec{b: b}
	m := &ErrorMsg{Reason: d.str()}
	return m, d.done()
}

// proposalWireSize is the encoded size of one batched proposal: round
// u32 + item u32 + alt u16 + class i8.
const proposalWireSize = 11

func appendProposeBatch(b []byte, m *ProposeBatch) []byte {
	e := enc{b: b}
	e.u32(uint32(len(m.Proposals)))
	for i := range m.Proposals {
		p := &m.Proposals[i]
		e.u32(p.Round)
		e.u32(p.ItemID)
		e.u16(p.Alt)
		e.i8(p.PrefInitiator)
	}
	return e.b
}

func decodeProposeBatch(b []byte, m *ProposeBatch) error {
	d := dec{b: b}
	n := int(d.u32())
	if d.err != nil {
		return d.err
	}
	// Guard allocations against lying headers: every claimed proposal
	// must be backed by payload bytes.
	if n > len(b)/proposalWireSize {
		return fmt.Errorf("nexitwire: propose batch claims %d proposals", n)
	}
	m.Proposals = m.Proposals[:0]
	for i := 0; i < n; i++ {
		m.Proposals = append(m.Proposals, AcceptRequest{
			Round:         d.u32(),
			ItemID:        d.u32(),
			Alt:           d.u16(),
			PrefInitiator: d.i8(),
		})
	}
	return d.done()
}

func appendBatchAccept(b []byte, m *BatchAccept) []byte {
	e := enc{b: b}
	e.u32(m.Accepted)
	return e.b
}

func decodeBatchAccept(b []byte, m *BatchAccept) error {
	d := dec{b: b}
	*m = BatchAccept{Accepted: d.u32()}
	return d.done()
}
