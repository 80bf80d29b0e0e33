package nexitwire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/nexit"
)

// TestWireStalledPeerTimeout proves the per-exchange Timeout fires: a
// peer that completes the handshake and then goes silent must fail the
// session within the configured bound, with an error that names the
// stall and still matches os.ErrDeadlineExceeded.
func TestWireStalledPeerTimeout(t *testing.T) {
	s, items, defaults, numAlts := testUniverse(t)
	connA, connB := net.Pipe()
	defer connA.Close()
	defer connB.Close()

	// The stalled peer: answer the Hello (echoing it back acknowledges
	// the same universe), then swallow every frame without replying.
	go func() {
		typ, body, err := readFrame(connB)
		if err != nil || typ != MsgHello {
			return
		}
		hello, err := decodeHello(body)
		if err != nil {
			return
		}
		fw := frameWriter{w: connB}
		if err := fw.writeFrame(MsgHelloAck, appendHello(nil, hello)); err != nil {
			return
		}
		for {
			if _, _, err := readFrame(connB); err != nil {
				return
			}
		}
	}()

	ini := &Initiator{
		Name:    "agent-a",
		Cfg:     nexit.DefaultDistanceConfig(),
		Eval:    nexit.NewDistanceEvaluator(s, nexit.SideA, 10),
		Timeout: 100 * time.Millisecond,
	}
	start := time.Now()
	_, err := ini.RunConn(NewConn(connA), items, defaults, numAlts)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("session against a stalled peer succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("error does not match os.ErrDeadlineExceeded: %v", err)
	}
	if !strings.Contains(err.Error(), "stalled") || !strings.Contains(err.Error(), "100ms") {
		t.Errorf("error does not name the stall and timeout: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("timeout took %v to fire with a 100ms bound", elapsed)
	}
}

// TestWireResponderStallTimeout covers the serving side: an initiator
// that sends the Hello and nothing else must not hang the responder.
func TestWireResponderStallTimeout(t *testing.T) {
	s, items, defaults, numAlts := testUniverse(t)
	connA, connB := net.Pipe()
	defer connA.Close()
	defer connB.Close()

	errCh := make(chan error, 1)
	go func() {
		resp := &Responder{
			Name:     "agent-b",
			Eval:     nexit.NewDistanceEvaluator(s, nexit.SideB, 10),
			Items:    items,
			Defaults: defaults,
			NumAlts:  numAlts,
			Timeout:  100 * time.Millisecond,
		}
		_, err := serveOne(connB, resp)
		errCh <- err
	}()

	// Send a valid Hello, read the ack, then go silent (but keep
	// draining so the responder's writes are not what blocks).
	fw := frameWriter{w: connA}
	hello := &Hello{
		Version: Version, Name: "agent-a",
		NumAlts: uint16(numAlts), NumItems: uint32(len(items)),
		WorkloadHash: WorkloadHash(items, defaults, numAlts),
	}
	if err := fw.writeFrame(MsgHello, appendHello(nil, hello)); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, _, err := readFrame(connA); err != nil {
				return
			}
		}
	}()

	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("responder returned success against a silent initiator")
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("error does not match os.ErrDeadlineExceeded: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("responder hung on a silent initiator")
	}
}

// TestWireSessionReuse runs several back-to-back sessions on one
// connection — the daemon's epoch pattern — and checks every session
// matches the in-process engine.
func TestWireSessionReuse(t *testing.T) {
	s, items, defaults, numAlts := testUniverse(t)
	ref, err := nexit.Negotiate(nexit.DefaultDistanceConfig(),
		nexit.NewDistanceEvaluator(s, nexit.SideA, 10),
		nexit.NewDistanceEvaluator(s, nexit.SideB, 10),
		items, defaults, numAlts)
	if err != nil {
		t.Fatal(err)
	}

	connA, connB := net.Pipe()
	defer connA.Close()

	const epochs = 3
	type out struct {
		res *SessionResult
		err error
	}
	ch := make(chan out, epochs+1)
	go func() {
		defer connB.Close()
		resp := &Responder{
			Name:     "agent-b",
			Eval:     nexit.NewDistanceEvaluator(s, nexit.SideB, 10),
			Items:    items,
			Defaults: defaults,
			NumAlts:  numAlts,
			Timeout:  5 * time.Second,
		}
		c := NewConn(connB)
		for {
			hello, err := AcceptHelloConn(c, resp.Timeout)
			if err != nil {
				ch <- out{nil, err}
				return
			}
			if hello.Name != "agent-a" {
				t.Errorf("hello names peer %q", hello.Name)
			}
			r, err := resp.ServeSessionConn(c, hello)
			ch <- out{r, err}
			if err != nil {
				return
			}
		}
	}()

	ini := &Initiator{
		Name:    "agent-a",
		Cfg:     nexit.DefaultDistanceConfig(),
		Eval:    nexit.NewDistanceEvaluator(s, nexit.SideA, 10),
		Timeout: 5 * time.Second,
	}
	cA := NewConn(connA)
	for e := 0; e < epochs; e++ {
		res, err := ini.RunConn(cA, items, defaults, numAlts)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		sess := <-ch
		if sess.err != nil {
			t.Fatalf("epoch %d responder: %v", e, sess.err)
		}
		if !reflect.DeepEqual(res.Assign, ref.Assign) || !reflect.DeepEqual(sess.res.Assign, ref.Assign) {
			t.Errorf("epoch %d diverged from the in-process reference", e)
		}
		if sess.res.GainB != ref.GainB || res.GainA != ref.GainA {
			t.Errorf("epoch %d gains: wire (%d,%d), ref (%d,%d)",
				e, res.GainA, sess.res.GainB, ref.GainA, ref.GainB)
		}
	}

	// Closing the initiator side ends the responder loop with a clean EOF.
	connA.Close()
	last := <-ch
	if !errors.Is(last.err, io.EOF) {
		t.Errorf("responder loop ended with %v, want io.EOF", last.err)
	}
}

// TestRetiredFrameTypesRejected sends the three frame types v4 retired
// (5 accept-request, 6 accept-response, 7 commit), well-formed as v3
// framed them, to a Responder mid-session in place of its first
// ProposeBatch and to an Initiator in place of its first BatchAccept,
// on the in-process pipe. Each must end the session with the labelled
// protocol violation, on the receiver and in one Error frame to the
// peer, and the retired commit must not reach the evaluator.
// TestSessionTamperSweep checks the same at every frame position.
func TestRetiredFrameTypesRejected(t *testing.T) {
	items, defaults := staticItems(2)
	table := map[int][]int{0: {0, 3}, 1: {0, 2}}
	for _, f := range retiredFrames {
		want := fmt.Sprintf("unexpected msg(%d) frame", f.t)
		for dir, role := range []string{"responder", "initiator"} {
			t.Run(fmt.Sprintf("%s/%d", role, f.t), func(t *testing.T) {
				ini := &Initiator{Cfg: nexit.DefaultDistanceConfig(), Eval: &nexit.StaticEvaluator{NumAlts: 2, Table: table}}
				resp := &Responder{Eval: &nexit.StaticEvaluator{NumAlts: 2, Table: table}, Items: items, Defaults: defaults, NumAlts: 2}
				sub := f
				p, _, iniErr := runPipe(ini, resp, items, defaults, 2, tamper{dir: dir, pos: 2, sub: &sub}, 16)
				if orig := p.n[dir]; orig < 3 {
					t.Fatalf("the session carried %d frames that way, the retired frame replaces the third", orig)
				}
				recvErr := []error{p.err, iniErr}[dir]
				if recvErr == nil || !strings.Contains(recvErr.Error(), want) {
					t.Errorf("%s ended with %v, want %q", role, recvErr, want)
				}
				var aborts []string
				for _, fr := range p.wire[1-dir] {
					if fr.t == MsgError {
						em, err := decodeError(fr.payload)
						if err != nil {
							t.Fatal(err)
						}
						aborts = append(aborts, em.Reason)
					}
				}
				if len(aborts) != 1 || !strings.Contains(aborts[0], want) {
					t.Errorf("%s sent Error frames %q, want one carrying %q", role, aborts, want)
				}
				if dir == 0 && p.eval.commits != 0 {
					t.Errorf("a retired frame committed %d items on the responder's evaluator", p.eval.commits)
				}
			})
		}
	}
}
