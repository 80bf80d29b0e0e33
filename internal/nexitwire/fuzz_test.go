package nexitwire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/nexit"
)

// TestDecodersNeverPanic feeds arbitrary bytes to every decoder: they
// must return errors, not panic, regardless of input (a peer can send
// anything).
func TestDecodersNeverPanic(t *testing.T) {
	decoders := []struct {
		name string
		fn   func([]byte) error
	}{
		{"hello", func(b []byte) error { _, err := decodeHello(b); return err }},
		{"prefs-request", func(b []byte) error { _, err := fresh(decodePrefsRequest, b); return err }},
		{"prefs-response", func(b []byte) error { _, err := freshPrefsResponse(b); return err }},
		{"revert", func(b []byte) error { _, err := fresh(decodeRevert, b); return err }},
		{"done", func(b []byte) error { _, err := fresh(decodeDone, b); return err }},
		{"error", func(b []byte) error { _, err := decodeError(b); return err }},
		{"propose-batch", func(b []byte) error { _, err := fresh(decodeProposeBatch, b); return err }},
		{"batch-accept", func(b []byte) error { _, err := fresh(decodeBatchAccept, b); return err }},
	}
	for _, d := range decoders {
		d := d
		f := func(raw []byte) bool {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panic on %x: %v", d.name, raw, r)
				}
			}()
			_ = d.fn(raw) // error or success, never panic
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", d.name, err)
		}
	}
}

// TestFrameReaderNeverPanics drives readFrame with arbitrary byte
// streams.
func TestFrameReaderNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("readFrame panic on %x: %v", raw, r)
			}
		}()
		r := bytes.NewReader(raw)
		for {
			if _, _, err := readFrame(r); err != nil {
				return true
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEncodeDecodeIdentityProperty: for structurally valid messages,
// decode(encode(m)) == m (spot-checked with randomized Done payloads,
// the most complex frame).
func TestEncodeDecodeIdentityProperty(t *testing.T) {
	f := func(assignRaw []uint16, gainA, gainB int32, reason uint8, rounds uint32) bool {
		assign := assignRaw
		if assign == nil {
			assign = []uint16{}
		}
		m := &Done{Assign: assign, GainA: gainA, GainB: gainB, StopReason: reason, Rounds: rounds}
		got, err := fresh(decodeDone, appendDone(nil, m))
		if err != nil {
			return false
		}
		if len(got.Assign) != len(assign) {
			return false
		}
		for i := range assign {
			if got.Assign[i] != assign[i] {
				return false
			}
		}
		return got.GainA == gainA && got.GainB == gainB &&
			got.StopReason == reason && got.Rounds == rounds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// canonicalCodecs re-encodes what each of the eight decoders accepts;
// nil means the decoder refused the bytes, or, for a Hello from a newer
// version, tolerated what it cannot re-encode by design (its unknown
// trailing fields are skipped so the version check can reject it).
var canonicalCodecs = []func([]byte) []byte{
	func(b []byte) []byte {
		if m, err := decodeHello(b); err == nil && m.Version <= Version {
			return appendHello(nil, m)
		}
		return nil
	},
	func(b []byte) []byte {
		if m, err := fresh(decodePrefsRequest, b); err == nil {
			return appendPrefsRequest(nil, m)
		}
		return nil
	},
	func(b []byte) []byte {
		if m, err := freshPrefsResponse(b); err == nil {
			return appendPrefsResponse(nil, m)
		}
		return nil
	},
	func(b []byte) []byte {
		if m, err := fresh(decodeRevert, b); err == nil {
			return appendRevert(nil, m)
		}
		return nil
	},
	func(b []byte) []byte {
		if m, err := fresh(decodeDone, b); err == nil {
			return appendDone(nil, m)
		}
		return nil
	},
	func(b []byte) []byte {
		if m, err := decodeError(b); err == nil {
			return appendError(nil, m)
		}
		return nil
	},
	func(b []byte) []byte {
		if m, err := fresh(decodeProposeBatch, b); err == nil {
			return appendProposeBatch(nil, m)
		}
		return nil
	},
	func(b []byte) []byte {
		if m, err := fresh(decodeBatchAccept, b); err == nil {
			return appendBatchAccept(nil, m)
		}
		return nil
	},
}

// FuzzFrameDecode feeds arbitrary payloads to the decoder which picks
// (mod 8). Every payload a decoder accepts must re-encode to the same
// bytes: one message, one encoding.
func FuzzFrameDecode(f *testing.F) {
	for i, b := range [][]byte{
		appendHello(nil, &Hello{Version: Version, Name: "isp-a", NumAlts: 3, NumItems: 9, WorkloadHash: 42, Metric: "distance", Epoch: 7}),
		appendPrefsRequest(nil, &PrefsRequest{ItemIDs: []uint32{3, 9}, Defaults: []uint16{0, 2}}),
		appendPrefsResponse(nil, &PrefsResponse{Prefs: [][]int8{{0, -3, 10}, {5, 0, -10}}}),
		appendRevert(nil, &Revert{ItemID: 9, Alt: 2, Def: 1}),
		appendDone(nil, &Done{Assign: []uint16{0, 1, 2}, GainA: -5, GainB: 12, StopReason: 2, Rounds: 99}),
		appendError(nil, &ErrorMsg{Reason: "mismatch"}),
		appendProposeBatch(nil, &ProposeBatch{Proposals: []AcceptRequest{{Round: 1, ItemID: 2, Alt: 3, PrefInitiator: -4}}}),
		appendBatchAccept(nil, &BatchAccept{Accepted: 42}),
	} {
		f.Add(byte(i), b)
	}
	f.Add(byte(2), []byte{0, 0, 0, 0, 0x30, 0x30}) // no rows, 0x3030 columns
	f.Fuzz(func(t *testing.T, which byte, b []byte) {
		if got := canonicalCodecs[int(which)%len(canonicalCodecs)](b); got != nil && !bytes.Equal(got, b) {
			t.Fatalf("decoder %d accepted %x, which re-encodes as %x", int(which)%len(canonicalCodecs), b, got)
		}
	})
}

// FuzzResponderSession opens the responder of one of the four
// transcript-golden sessions (the first byte picks it, mod 4) and feeds
// the rest of the input to its step function as frames. step must never
// panic, every error it returns must be labelled, and once it has
// failed, nothing may reach the evaluator. The corpus is seeded with the
// initiator's frames of the four golden sessions.
//
// The input is served twice on one serving, as a Conn reuses it: after
// a whole golden session of another shape (the unwind session's two
// items, or the distance session's table), and again after itself. The
// two runs must reply the same frames and end the same way.
func FuzzResponderSession(f *testing.F) {
	fixtures := transcriptFixtures(f)
	golden := make([][]frame, len(fixtures))
	for i, fx := range fixtures {
		p, _, err := fx.run(untampered, 1<<20)
		if err != nil || p.err != nil {
			f.Fatalf("%s: %v / %v", fx.name, err, p.err)
		}
		golden[i] = p.wire[0]
		// The frames after the Hello, up to 8 KiB: the fuzzer mutates
		// and minimizes small inputs far faster.
		var stream bytes.Buffer
		fw := frameWriter{w: &stream}
		for _, fr := range p.wire[0][1:] {
			if stream.Len() > 0 && stream.Len()+frameOverhead+len(fr.payload) > 8<<10 {
				break
			}
			if err := fw.writeFrame(fr.t, fr.payload); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(byte(i), stream.Bytes())
	}
	// A session that fails at its first frame: the run after it must
	// not inherit its error.
	var hello bytes.Buffer
	if err := (&frameWriter{w: &hello}).writeFrame(MsgHello, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(byte(0), hello.Bytes())
	f.Fuzz(func(t *testing.T, which byte, stream []byte) {
		i := int(which) % len(fixtures)
		other := 1 // the unwind session: two items, two alternatives
		if fixtures[i].name == fixtures[other].name {
			other = 0
		}
		var m serving
		if got := serveStream(t, &m, fixtures[other], golden[other][1:]); got.res == nil {
			t.Fatalf("the golden %s session failed: %s", fixtures[other].name, got.err)
		}
		var frames []frame
		for r := bytes.NewReader(stream); ; {
			typ, body, err := readFrame(r)
			if err != nil {
				break
			}
			frames = append(frames, frame{typ, body})
		}
		first := serveStream(t, &m, fixtures[i], frames)
		if again := serveStream(t, &m, fixtures[i], frames); !reflect.DeepEqual(first, again) {
			t.Fatalf("the same frames served twice on one serving: %+v, then %+v", first, again)
		}
	})
}

// servedStream is how a session served from a stream of frames went:
// every reply, the result or the error, and the evaluator calls.
type servedStream struct {
	replies []frame
	res     *nexit.Result
	err     string
	calls   int
}

// serveStream opens a session of fx's on m, with a fresh responder, and
// steps it through frames until it ends or they run out. It fails t if
// a step returns an unlabelled error, or if a failed session returns
// anything but its error or reaches the evaluator again.
func serveStream(t *testing.T, m *serving, fx *fixture, frames []frame) servedStream {
	_, resp := fx.pair()
	eval := &countingEval{Evaluator: resp.Eval}
	resp.Eval = eval
	var out servedStream
	typ, payload, _, err := m.open(resp, &Hello{
		Version: Version, NumAlts: uint16(fx.numAlts), NumItems: uint32(len(fx.items)),
		WorkloadHash: WorkloadHash(fx.items, fx.defaults, fx.numAlts), Metric: metricName(resp.Metric),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out.replies = append(out.replies, frame{typ, payload})
	var failed error
	for _, fr := range frames {
		typ, payload, res, err := m.step(fr.t, fr.payload, nil)
		switch {
		case failed != nil:
			if typ != 0 || res != nil || err != failed || eval.calls != out.calls {
				t.Fatalf("step after %v returned (%v, %v, %v) and called the evaluator %d times", failed, typ, res, err, eval.calls-out.calls)
			}
			continue
		case err != nil:
			if !strings.HasPrefix(err.Error(), "nexitwire:") {
				t.Fatalf("unlabelled error: %v", err)
			}
			failed, out.err = err, err.Error()
		}
		if typ != 0 {
			out.replies = append(out.replies, frame{typ, payload})
		}
		out.calls = eval.calls
		if res != nil {
			out.res = res
			break
		}
	}
	out.calls = eval.calls
	return out
}
