package nexitwire

import (
	"bytes"
	"testing"
	"testing/quick"
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
		{"prefs-request", func(b []byte) error { _, err := decodePrefsRequest(b); return err }},
		{"prefs-response", func(b []byte) error { _, err := decodePrefsResponse(b); return err }},
		{"revert", func(b []byte) error { _, err := decodeRevert(b); return err }},
		{"done", func(b []byte) error { _, err := decodeDone(b); return err }},
		{"error", func(b []byte) error { _, err := decodeError(b); return err }},
		{"propose-batch", func(b []byte) error { _, err := decodeProposeBatch(b); return err }},
		{"batch-accept", func(b []byte) error { _, err := decodeBatchAccept(b); return err }},
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
		got, err := decodeDone(appendDone(nil, m))
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
