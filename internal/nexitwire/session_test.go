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

// commitCounter counts the commits that reach an evaluator.
type commitCounter struct {
	nexit.Evaluator
	commits int
}

func (c *commitCounter) Commit(it nexit.Item, alt int) {
	c.commits++
	c.Evaluator.Commit(it, alt)
}

// TestRetiredFrameTypesRejected sends the three frame types v4 retired
// (5 accept-request, 6 accept-response, 7 commit), well-formed as v3
// framed them, to a Responder mid-session and to an Initiator awaiting a
// BatchAccept. Each must end the session inside the timeout with the
// labelled protocol violation, on the receiver and as an Error frame on
// the wire, and the retired commit must not reach the evaluator.
func TestRetiredFrameTypesRejected(t *testing.T) {
	retired := []struct {
		typ     MsgType
		payload []byte
	}{
		{5, []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 3}}, // round, item, alt, class
		{6, []byte{1}},                // accepted
		{7, []byte{0, 0, 0, 0, 0, 1}}, // item, alt
	}
	items, defaults := staticItems(2)
	table := map[int][]int{0: {0, 3}, 1: {0, 2}}
	const timeout = 2 * time.Second
	// expectError reads the next frame on conn and requires the Error
	// frame carrying the labelled violation.
	expectError := func(t *testing.T, conn net.Conn, want string) {
		t.Helper()
		typ, body, err := readFrame(conn)
		if err != nil || typ != MsgError {
			t.Errorf("peer saw %v frame (%v), want error", typ, err)
			return
		}
		if em, err := decodeError(body); err != nil || !strings.Contains(em.Reason, want) {
			t.Errorf("error frame carries %+v (%v), want %q", em, err, want)
		}
	}

	for _, f := range retired {
		want := fmt.Sprintf("unexpected msg(%d) frame", f.typ)

		t.Run(fmt.Sprintf("responder/%d", f.typ), func(t *testing.T) {
			connA, connB := net.Pipe()
			defer connA.Close()
			defer connB.Close()
			eval := &commitCounter{Evaluator: &nexit.StaticEvaluator{NumAlts: 2, Table: table}}
			resp := &Responder{Eval: eval, Items: items, Defaults: defaults, NumAlts: 2, Timeout: timeout}
			errCh := make(chan error, 1)
			go func() {
				_, err := serveOne(connB, resp)
				errCh <- err
			}()

			fw := frameWriter{w: connA}
			send := func(typ MsgType, payload []byte) {
				t.Helper()
				if err := fw.writeFrame(typ, payload); err != nil {
					t.Fatal(err)
				}
			}
			send(MsgHello, appendHello(nil, &Hello{
				Version: Version, NumAlts: 2, NumItems: uint32(len(items)),
				WorkloadHash: WorkloadHash(items, defaults, 2),
			}))
			if typ, _, err := readFrame(connA); err != nil || typ != MsgHelloAck {
				t.Fatalf("hello answered with %v (%v)", typ, err)
			}
			send(MsgPrefsRequest, appendPrefsRequest(nil, &PrefsRequest{ItemIDs: []uint32{0, 1}, Defaults: []uint16{0, 0}}))
			if typ, _, err := readFrame(connA); err != nil || typ != MsgPrefsResponse {
				t.Fatalf("prefs request answered with %v (%v)", typ, err)
			}
			send(f.typ, f.payload)
			expectError(t, connA, want)
			select {
			case err := <-errCh:
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("responder ended with %v, want %q", err, want)
				}
			case <-time.After(timeout):
				t.Fatal("responder hung on a retired frame")
			}
			if eval.commits != 0 {
				t.Errorf("a retired frame committed %d items on the responder's evaluator", eval.commits)
			}
		})

		t.Run(fmt.Sprintf("initiator/%d", f.typ), func(t *testing.T) {
			connA, connB := net.Pipe()
			defer connA.Close()
			defer connB.Close()
			// The stand-in responder is compliant up to the first
			// ProposeBatch, which it answers with the retired frame.
			standIn := make(chan struct{})
			go func() {
				defer close(standIn)
				evalB := &nexit.StaticEvaluator{NumAlts: 2, Table: table}
				fw := frameWriter{w: connB}
				for {
					typ, body, err := readFrame(connB)
					if err != nil {
						return
					}
					switch typ {
					case MsgHello:
						err = fw.writeFrame(MsgHelloAck, body)
					case MsgPrefsRequest:
						rows := evalB.Prefs(items, defaults)
						resp := &PrefsResponse{}
						for _, row := range rows {
							resp.Prefs = append(resp.Prefs, []int8{int8(row[0]), int8(row[1])})
						}
						err = fw.writeFrame(MsgPrefsResponse, appendPrefsResponse(nil, resp))
					case MsgProposeBatch:
						if err := fw.writeFrame(f.typ, f.payload); err != nil {
							t.Error(err)
							return
						}
						expectError(t, connB, want)
						return
					default:
						t.Errorf("stand-in responder saw %v frame", typ)
						return
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()

			ini := &Initiator{
				Cfg:     nexit.DefaultDistanceConfig(),
				Eval:    &nexit.StaticEvaluator{NumAlts: 2, Table: table},
				Timeout: timeout,
			}
			done := make(chan error, 1)
			go func() {
				_, err := ini.RunConn(NewConn(connA), items, defaults, 2)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("initiator ended with %v, want %q", err, want)
				}
			case <-time.After(timeout):
				t.Fatal("initiator hung on a retired frame")
			}
			<-standIn
		})
	}
}
