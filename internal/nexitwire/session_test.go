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
	"repro/internal/pairsim"
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

// wireTable is one negotiation table of a wire test.
type wireTable struct {
	s        *pairsim.System
	items    []nexit.Item
	defaults []int
	numAlts  int
}

// reuseTables are the tables TestWireSessionReuse negotiates back to
// back on one Conn pair: the wire tests' universe, its first eighth, a
// larger pair with another alternative count, then the small and the
// first table again. Every session meets the scratch of a session of
// another size or another alternative count.
func reuseTables(t *testing.T) []wireTable {
	pairs := testPairs(t)
	var first wireTable
	first.s, first.items, first.defaults, first.numAlts = pairUniverse(pairs[0])
	small := first
	small.items, small.defaults = first.items[:len(first.items)/8], first.defaults[:len(first.items)/8]
	for _, p := range pairs[1:] {
		var other wireTable
		other.s, other.items, other.defaults, other.numAlts = pairUniverse(p)
		if other.numAlts != first.numAlts && len(other.items) > len(first.items) {
			return []wireTable{first, small, other, small, first}
		}
	}
	t.Fatal("no larger pair with another alternative count")
	return nil
}

// TestWireSessionReuse runs back-to-back sessions on one connection —
// the daemon's epoch pattern — over tables that grow, shrink and change
// their alternative count, and checks every session against the
// in-process engine and against the same session on a fresh Conn pair:
// no scratch a session keeps on its Conn may leak into the next. Before
// the third, the responder rejects a session at its Hello (an epoch
// skew), and neither end's error may outlive it.
func TestWireSessionReuse(t *testing.T) {
	tables := reuseTables(t)
	connA, connB := net.Pipe()
	defer connA.Close()

	type out struct {
		res *nexit.Result
		err error
	}
	next := make(chan *Responder)
	ch := make(chan out, 1)
	go func() {
		defer connB.Close()
		c := NewConn(connB)
		for resp := range next {
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
		}
		_, err := AcceptHelloConn(c, 5*time.Second)
		ch <- out{nil, err}
	}()

	cA := NewConn(connA)
	for e, tb := range tables {
		ref, err := nexit.Negotiate(nexit.DefaultDistanceConfig(),
			nexit.NewDistanceEvaluator(tb.s, nexit.SideA, 10),
			nexit.NewDistanceEvaluator(tb.s, nexit.SideB, 10),
			tb.items, tb.defaults, tb.numAlts)
		if err != nil {
			t.Fatal(err)
		}
		freshA, freshB := net.Pipe()
		freshRes, freshSess := runWireSession(t, freshA, freshB, tb.s, tb.items, tb.defaults, tb.numAlts)
		freshA.Close()
		freshB.Close()

		resp := &Responder{
			Name: "agent-b", Eval: nexit.NewDistanceEvaluator(tb.s, nexit.SideB, 10),
			Items: tb.items, Defaults: tb.defaults, NumAlts: tb.numAlts,
			Timeout: 5 * time.Second,
		}
		ini := &Initiator{
			Name: "agent-a", Cfg: nexit.DefaultDistanceConfig(),
			Eval:    nexit.NewDistanceEvaluator(tb.s, nexit.SideA, 10),
			Timeout: 5 * time.Second,
		}
		if e == 2 {
			next <- resp
			ini.Epoch = 1
			_, err := ini.RunConn(cA, tb.items, tb.defaults, tb.numAlts)
			var skew *EpochSkewError
			if sess := <-ch; !errors.As(err, &skew) || !errors.As(sess.err, &skew) {
				t.Fatalf("skewed session: initiator %v, responder %v; want epoch skews", err, sess.err)
			}
			ini.Epoch = 0
		}
		next <- resp
		res, err := ini.RunConn(cA, tb.items, tb.defaults, tb.numAlts)
		if err != nil {
			t.Fatalf("session %d (%d items x %d): %v", e, len(tb.items), tb.numAlts, err)
		}
		sess := <-ch
		if sess.err != nil {
			t.Fatalf("session %d (%d items x %d) responder: %v", e, len(tb.items), tb.numAlts, sess.err)
		}
		if !reflect.DeepEqual(res, ref) || !reflect.DeepEqual(res, freshRes) {
			t.Errorf("session %d (%d items x %d): the initiator's result differs from the in-process engine's or a fresh Conn's",
				e, len(tb.items), tb.numAlts)
		}
		if !reflect.DeepEqual(sess.res, freshSess) || !reflect.DeepEqual(sess.res.Assign, ref.Assign) || sess.res.GainB != ref.GainB {
			t.Errorf("session %d (%d items x %d): the responder's result differs from the in-process engine's or a fresh Conn's",
				e, len(tb.items), tb.numAlts)
		}
	}

	// Closing the initiator side ends the responder loop with a clean EOF.
	close(next)
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

// sessionAllocs is what a session costs in heap allocations, both ends
// together, once a Conn pair's scratch is warm: the Hello each end
// decodes (the struct and its two strings), the engine's Result, its
// Assign and its Transcript, and the responder's Result and its Assign.
// Nothing in it grows with the table, the rows or the frames.
const sessionAllocs = 11

// TestSessionAllocs pins sessionAllocs: the second and later sessions
// on one net.Pipe Conn pair, over the wire tests' universe, allocate
// nothing per item, row or frame. testing.AllocsPerRun counts both
// goroutines, and is exact under -race too.
func TestSessionAllocs(t *testing.T) {
	s, items, defaults, numAlts := testUniverse(t)
	connA, connB := net.Pipe()
	defer connA.Close()
	type out struct {
		res *nexit.Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		defer connB.Close()
		resp := &Responder{
			Name: "agent-b", Eval: nexit.NewDistanceEvaluator(s, nexit.SideB, 10),
			Items: items, Defaults: defaults, NumAlts: numAlts,
		}
		c := NewConn(connB)
		for {
			hello, err := AcceptHelloConn(c, 0)
			if err != nil {
				return
			}
			r, err := resp.ServeSessionConn(c, hello)
			ch <- out{r, err}
			if err != nil {
				return
			}
		}
	}()
	ini := &Initiator{Name: "agent-a", Cfg: nexit.DefaultDistanceConfig(), Eval: nexit.NewDistanceEvaluator(s, nexit.SideA, 10)}
	cA := NewConn(connA)
	session := func() {
		if _, err := ini.RunConn(cA, items, defaults, numAlts); err != nil {
			t.Fatalf("initiator: %v", err)
		}
		if o := <-ch; o.err != nil {
			t.Fatalf("responder: %v", o.err)
		}
	}
	session() // the first session grows the scratch
	if n := testing.AllocsPerRun(50, session); n != sessionAllocs {
		t.Errorf("a warm session allocates %.0f times, want %d", n, sessionAllocs)
	}
}
