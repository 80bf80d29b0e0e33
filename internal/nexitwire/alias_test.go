package nexitwire

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// readFrame reads one frame from r into a fresh buffer.
func readFrame(r io.Reader) (MsgType, []byte, error) {
	t, body, _, err := readFrameInto(r, nil)
	return t, body, err
}

// fresh decodes b into a message of its own, as a receiver with no
// scratch to reuse would.
func fresh[M any](decode func([]byte, *M) error, b []byte) (*M, error) {
	m := new(M)
	return m, decode(b, m)
}

// freshPrefsResponse is fresh for the one decoder that also takes the
// flat table its rows slice.
func freshPrefsResponse(b []byte) (*PrefsResponse, error) {
	m, flat := new(PrefsResponse), []int8(nil)
	return m, decodePrefsResponse(b, m, &flat)
}

// writeFrames serializes the given (type, payload) frames back to back
// the way a session would see them on the wire.
func writeFrames(t *testing.T, frames ...struct {
	typ     MsgType
	payload []byte
}) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	fw := frameWriter{w: &buf}
	for _, f := range frames {
		if err := fw.writeFrame(f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

// TestReadFrameIntoReuse pins the scratch-buffer contract: the returned
// scratch is reused when the next frame fits, grown when it does not,
// and the MaxFrameSize guard survives the reuse path with its labelled
// error.
func TestReadFrameIntoReuse(t *testing.T) {
	big := make([]byte, 64)
	for i := range big {
		big[i] = byte(i)
	}
	buf := writeFrames(t,
		struct {
			typ     MsgType
			payload []byte
		}{MsgDone, big},
		struct {
			typ     MsgType
			payload []byte
		}{MsgRevert, []byte{9, 9}},
	)

	typ, body, scratch, err := readFrameInto(buf, nil)
	if err != nil || typ != MsgDone || !bytes.Equal(body, big) {
		t.Fatalf("first frame = %v %v (%v)", typ, body, err)
	}
	first := &scratch[0]
	typ, body, scratch, err = readFrameInto(buf, scratch)
	if err != nil || typ != MsgRevert || !bytes.Equal(body, []byte{9, 9}) {
		t.Fatalf("second frame = %v %v (%v)", typ, body, err)
	}
	if &scratch[0] != first {
		t.Error("smaller second frame did not reuse the scratch buffer")
	}

	// The oversize guard must fire before any allocation, labelled, on
	// the reuse path too.
	var over bytes.Buffer
	over.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, _, err := readFrameInto(&over, scratch); err == nil ||
		!strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized frame on reuse path: %v", err)
	}
}

// TestDecodedMessagesDoNotAliasScratch is the aliasing test the codec's
// buffer-ownership contract calls for (DESIGN.md §9): frame bodies
// alias the session's reusable read buffer, so every decoder must copy
// what it keeps. Decode messages of each kept-data kind from a scratch
// buffer, clobber the buffer as the next recv would, and verify the
// decoded messages are unaffected. Run under -race in CI alongside the
// concurrent mesh tests.
func TestDecodedMessagesDoNotAliasScratch(t *testing.T) {
	hello := &Hello{Version: Version, Name: "isp-a", Metric: "bandwidth",
		NumAlts: 4, NumItems: 7, WorkloadHash: 0x1234, Epoch: 3}
	prefs := &PrefsResponse{Prefs: [][]int8{{1, -2, 3}, {-4, 5, -6}}}
	batch := &ProposeBatch{Proposals: []AcceptRequest{
		{Round: 1, ItemID: 2, Alt: 3, PrefInitiator: -4},
		{Round: 2, ItemID: 5, Alt: 0, PrefInitiator: 7},
	}}
	buf := writeFrames(t,
		struct {
			typ     MsgType
			payload []byte
		}{MsgHello, appendHello(nil, hello)},
		struct {
			typ     MsgType
			payload []byte
		}{MsgPrefsResponse, appendPrefsResponse(nil, prefs)},
		struct {
			typ     MsgType
			payload []byte
		}{MsgProposeBatch, appendProposeBatch(nil, batch)},
	)

	var scratch []byte
	clobber := func() {
		for i := range scratch {
			scratch[i] = 0xFF
		}
	}

	var body []byte
	var err error
	if _, body, scratch, err = readFrameInto(buf, scratch); err != nil {
		t.Fatal(err)
	}
	gotHello, err := decodeHello(body)
	if err != nil {
		t.Fatal(err)
	}
	clobber()
	if !reflect.DeepEqual(gotHello, hello) {
		t.Errorf("hello aliased scratch: %+v != %+v", gotHello, hello)
	}

	if _, body, scratch, err = readFrameInto(buf, scratch); err != nil {
		t.Fatal(err)
	}
	gotPrefs, err := freshPrefsResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	clobber()
	if !reflect.DeepEqual(gotPrefs, prefs) {
		t.Errorf("prefs aliased scratch: %+v != %+v", gotPrefs, prefs)
	}

	if _, body, scratch, err = readFrameInto(buf, scratch); err != nil {
		t.Fatal(err)
	}
	gotBatch, err := fresh(decodeProposeBatch, body)
	if err != nil {
		t.Fatal(err)
	}
	clobber()
	if !reflect.DeepEqual(gotBatch, batch) {
		t.Errorf("propose batch aliased scratch: %+v != %+v", gotBatch, batch)
	}
}

// TestProposeBatchRoundtrip covers the v4 batched frames: an
// encode/decode identity for ProposeBatch and BatchAccept, and the
// decoder's labelled guard against a header claiming more proposals
// than the payload carries.
func TestProposeBatchRoundtrip(t *testing.T) {
	m := &ProposeBatch{Proposals: []AcceptRequest{
		{Round: 0, ItemID: 10, Alt: 2, PrefInitiator: 5},
		{Round: 1, ItemID: 11, Alt: 0, PrefInitiator: -5},
		{Round: 2, ItemID: 0, Alt: 65535, PrefInitiator: 127},
	}}
	got, err := fresh(decodeProposeBatch, appendProposeBatch(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("roundtrip = %+v, want %+v", got, m)
	}

	empty, err := fresh(decodeProposeBatch, appendProposeBatch(nil, &ProposeBatch{}))
	if err != nil || len(empty.Proposals) != 0 {
		t.Errorf("empty batch roundtrip = %+v (%v)", empty, err)
	}

	lying := appendProposeBatch(nil, m)[:4+proposalWireSize] // header says 3, payload has 1
	if _, err := fresh(decodeProposeBatch, lying); err == nil ||
		!strings.Contains(err.Error(), "claims") {
		t.Errorf("lying batch header not rejected: %v", err)
	}

	ba, err := fresh(decodeBatchAccept, appendBatchAccept(nil, &BatchAccept{Accepted: 42}))
	if err != nil || ba.Accepted != 42 {
		t.Errorf("batch accept roundtrip = %+v (%v)", ba, err)
	}
}
