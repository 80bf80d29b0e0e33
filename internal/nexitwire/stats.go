package nexitwire

import "time"

// WireStats is the per-connection wire instrumentation: frame and byte
// counts per direction, and cumulative blocking time per protocol
// phase. It lives on the session scratch a Conn already owns and is
// written with plain adds — a Conn serves one session at a time (the
// protocol is strictly request/response), so there is exactly one
// writer and no atomics or allocations on the frame path. Readers use
// Conn.TakeStats, which hands the accumulated counts to the owner
// between sessions.
//
// Phase time is attributed by frame type: every blocking send or
// receive's wall time lands in the phase its frame belongs to, so the
// four phase buckets partition a session's wire time (engine compute
// between frames is not counted — it is visible as the gap between a
// session's wall clock and its wire time).
type WireStats struct {
	FramesSent int64
	FramesRecv int64
	BytesSent  int64
	BytesRecv  int64

	// HelloNanos counts session setup: Hello and HelloAck.
	HelloNanos int64
	// PrefsNanos counts preference disclosure: PrefsRequest/Response.
	PrefsNanos int64
	// ProposeNanos counts the accept path: ProposeBatch/BatchAccept.
	ProposeNanos int64
	// CommitNanos counts state installation and teardown: Revert, Done,
	// and Error frames.
	CommitNanos int64
}

// phaseNanos returns the accumulator for t's protocol phase.
func (w *WireStats) phaseNanos(t MsgType) *int64 {
	switch t {
	case MsgHello, MsgHelloAck:
		return &w.HelloNanos
	case MsgPrefsRequest, MsgPrefsResponse:
		return &w.PrefsNanos
	case MsgProposeBatch, MsgBatchAccept:
		return &w.ProposeNanos
	default: // Revert, Done, Error
		return &w.CommitNanos
	}
}

// observeSent records one outbound frame of payloadLen body bytes.
func (w *WireStats) observeSent(t MsgType, payloadLen int, d time.Duration) {
	w.FramesSent++
	w.BytesSent += frameOverhead + int64(payloadLen)
	*w.phaseNanos(t) += int64(d)
}

// observeRecv records one inbound frame of bodyLen body bytes.
func (w *WireStats) observeRecv(t MsgType, bodyLen int, d time.Duration) {
	w.FramesRecv++
	w.BytesRecv += frameOverhead + int64(bodyLen)
	*w.phaseNanos(t) += int64(d)
}

// frameOverhead is the on-wire framing cost around a payload: the
// 4-byte length prefix plus the 1-byte type.
const frameOverhead = 5

// TakeStats returns the wire stats accumulated since the last take (or
// since the Conn was created) and resets them. A daemon calls it after
// each session and folds the delta into its telemetry; like the rest
// of a Conn it assumes the single-session-at-a-time discipline.
func (c *Conn) TakeStats() WireStats {
	st := c.s.stats
	c.s.stats = WireStats{}
	return st
}
