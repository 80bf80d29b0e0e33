package nexitwire

import (
	"net"
	"testing"
	"time"

	"repro/internal/nexit"
)

// A full session's wire stats must balance: every frame one side sends
// is a frame the other receives, byte for byte, and phase time only
// accumulates in phases the session actually ran.
func TestWireStatsBalance(t *testing.T) {
	s, items, defaults, numAlts := testUniverse(t)
	connA, connB := net.Pipe()
	defer connA.Close()
	defer connB.Close()
	cA, cB := NewConn(connA), NewConn(connB)

	resp := &Responder{
		Name:     "agent-b",
		Eval:     nexit.NewDistanceEvaluator(s, nexit.SideB, 10),
		Items:    items,
		Defaults: defaults,
		NumAlts:  numAlts,
		Timeout:  5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		hello, err := AcceptHelloConn(cB, resp.Timeout)
		if err != nil {
			errCh <- err
			return
		}
		_, err = resp.ServeSessionConn(cB, hello)
		errCh <- err
	}()
	ini := &Initiator{
		Name:    "agent-a",
		Cfg:     nexit.DefaultDistanceConfig(),
		Eval:    nexit.NewDistanceEvaluator(s, nexit.SideA, 10),
		Timeout: 5 * time.Second,
	}
	if _, err := ini.RunConn(cA, items, defaults, numAlts); err != nil {
		t.Fatalf("initiator: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("responder: %v", err)
	}

	stA, stB := cA.TakeStats(), cB.TakeStats()
	if stA.FramesSent == 0 || stB.FramesSent == 0 {
		t.Fatalf("no frames recorded: %+v / %+v", stA, stB)
	}
	if stA.FramesSent != stB.FramesRecv || stB.FramesSent != stA.FramesRecv {
		t.Errorf("frame counts unbalanced: A %+v, B %+v", stA, stB)
	}
	if stA.BytesSent != stB.BytesRecv || stB.BytesSent != stA.BytesRecv {
		t.Errorf("byte counts unbalanced: A %+v, B %+v", stA, stB)
	}
	// Hello, prefs, and propose all ran; their blocking time must have
	// registered on the initiator (it waits for every reply).
	if stA.HelloNanos <= 0 || stA.PrefsNanos <= 0 || stA.ProposeNanos <= 0 {
		t.Errorf("initiator phase times missing: %+v", stA)
	}

	// Take is destructive: a second take sees a fresh accumulator.
	if again := cA.TakeStats(); again != (WireStats{}) {
		t.Errorf("second TakeStats = %+v, want zero", again)
	}
}

// The per-frame instrumentation must not allocate: it runs on every
// frame of the session hot path, whose warm allocation count
// TestSessionAllocs pins (DESIGN.md §9). This pins the observe calls in
// isolation.
func TestWireStatsObserveDoesNotAllocate(t *testing.T) {
	var w WireStats
	if n := testing.AllocsPerRun(100, func() {
		w.observeSent(MsgProposeBatch, 512, time.Microsecond)
		w.observeRecv(MsgBatchAccept, 64, time.Microsecond)
	}); n != 0 {
		t.Fatalf("frame observation allocates %.1f objects/frame, want 0", n)
	}
}

// Every message type maps to exactly one phase bucket.
func TestWireStatsPhaseAttribution(t *testing.T) {
	var w WireStats
	w.observeSent(MsgHello, 10, time.Microsecond)
	w.observeSent(MsgPrefsResponse, 10, time.Microsecond)
	w.observeSent(MsgProposeBatch, 10, time.Microsecond)
	w.observeRecv(MsgDone, 10, time.Microsecond)
	us := int64(time.Microsecond)
	if w.HelloNanos != us || w.PrefsNanos != us || w.ProposeNanos != us || w.CommitNanos != us {
		t.Fatalf("phase attribution wrong: %+v", w)
	}
	if w.FramesSent != 3 || w.FramesRecv != 1 {
		t.Fatalf("frame counts wrong: %+v", w)
	}
	if w.BytesSent != 3*(frameOverhead+10) || w.BytesRecv != frameOverhead+10 {
		t.Fatalf("byte counts wrong: %+v", w)
	}
}
