package nexitwire

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/nexit"
	"repro/internal/pairsim"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from the current wire implementation")

// recordingConn keeps every byte that crosses one end of a connection,
// per direction.
type recordingConn struct {
	net.Conn
	sent, recv bytes.Buffer
}

func (c *recordingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Write(p[:n])
	return n, err
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Write(p[:n])
	return n, err
}

// frameCounts walks a recorded direction and counts its frames by type.
func frameCounts(t *testing.T, stream []byte) map[MsgType]int {
	t.Helper()
	counts := map[MsgType]int{}
	for r := bytes.NewReader(stream); r.Len() > 0; {
		typ, _, err := readFrame(r)
		if err != nil {
			t.Fatalf("recorded stream is not whole frames: %v", err)
		}
		counts[typ]++
	}
	return counts
}

// serveOne serves exactly one Hello...Done session on conn.
func serveOne(conn net.Conn, r *Responder) (*nexit.Result, error) {
	c := NewConn(conn)
	hello, err := AcceptHelloConn(c, r.Timeout)
	if err != nil {
		return nil, err
	}
	return r.ServeSessionConn(c, hello)
}

// bandwidthConfig is the default bandwidth configuration with the
// reassignment threshold lowered from 5% to 1% of the traffic: the test
// universe agrees 37 of its 750 unit flows under the default, 4.9%, and
// would never collect preferences a second time.
func bandwidthConfig() nexit.Config {
	cfg := nexit.DefaultBandwidthConfig()
	cfg.ReassignFraction = 0.01
	return cfg
}

// bandwidthEvaluator builds a fresh stateful bandwidth evaluator for one
// side of s, with capacities sized so that flows contend (each link fits
// a handful of unit flows).
func bandwidthEvaluator(s *pairsim.System, side nexit.Side) nexit.Evaluator {
	tbl := s.Up
	if side == nexit.SideB {
		tbl = s.Down
	}
	n := len(tbl.ISP.Links)
	load, capv := make([]float64, n), make([]float64, n)
	for i := range capv {
		capv[i] = 5
	}
	return nexit.NewBandwidthEvaluator(s, side, 10, load, capv)
}

// unwindFixture forces the engine's terminal unwind: item 0 dips B (-2)
// against A's +3 while B still has hope (+1 on item 2); after B banks
// the +1, only another (+3,-2) remains, so B walks away at -1 and the
// unwind reverts item 0.
func unwindFixture() (evalA, evalB nexit.Evaluator, items []nexit.Item, defaults []int) {
	items, defaults = staticItems(3)
	evalA = &nexit.StaticEvaluator{NumAlts: 2, Table: map[int][]int{0: {0, 3}, 1: {0, 3}, 2: {0, 0}}}
	evalB = &nexit.StaticEvaluator{NumAlts: 2, Table: map[int][]int{0: {0, -2}, 1: {0, -2}, 2: {0, 1}}}
	return evalA, evalB, items, defaults
}

// TestSessionTranscriptGolden pins every byte, in both directions, of
// four fixed sessions that between them exercise each frame a v4 peer
// can send: the distance session of TestWireMatchesInProcess, the
// bandwidth session of TestWireBandwidthMatchesInProcess under
// bandwidthConfig (repeated PrefsRequest), the TestWireUnwind session
// (Revert) and the TestWireVeto session (truncated batch). A change that
// leaves testdata/session_transcript.sha256 alone changed no valid v4
// byte stream and needs no version bump; regenerate it (-update) only
// together with one.
func TestSessionTranscriptGolden(t *testing.T) {
	s, items, defaults, numAlts := testUniverse(t)
	unwindA, unwindB, unwindItems, unwindDefaults := unwindFixture()
	const timeout = 5 * time.Second
	sessions := []struct {
		name     string
		ini      *Initiator
		resp     *Responder
		items    []nexit.Item
		defaults []int
		numAlts  int
		// exercises is the initiator frame that makes the session worth
		// pinning, and the least number of them it must carry.
		exercises MsgType
		atLeast   int
	}{
		{
			"distance",
			&Initiator{Cfg: nexit.DefaultDistanceConfig(), Eval: nexit.NewDistanceEvaluator(s, nexit.SideA, 10)},
			&Responder{Eval: nexit.NewDistanceEvaluator(s, nexit.SideB, 10)},
			items, defaults, numAlts, MsgProposeBatch, 1,
		},
		{
			"bandwidth",
			&Initiator{Metric: "bandwidth", Cfg: bandwidthConfig(), Eval: bandwidthEvaluator(s, nexit.SideA)},
			&Responder{Metric: "bandwidth", Eval: bandwidthEvaluator(s, nexit.SideB)},
			items, defaults, numAlts, MsgPrefsRequest, 2,
		},
		{
			"unwind",
			&Initiator{Cfg: nexit.DefaultDistanceConfig(), Eval: unwindA},
			&Responder{Eval: unwindB},
			unwindItems, unwindDefaults, 2, MsgRevert, 1,
		},
		{
			"veto",
			&Initiator{Cfg: nexit.DefaultDistanceConfig(), Eval: nexit.NewDistanceEvaluator(s, nexit.SideA, 10)},
			&Responder{
				Eval:   nexit.NewDistanceEvaluator(s, nexit.SideB, 10),
				Accept: func(AcceptRequest) bool { return false },
			},
			items, defaults, numAlts, MsgProposeBatch, 1,
		},
	}

	var got strings.Builder
	for _, f := range sessions {
		f.ini.Name, f.ini.Timeout = "agent-a", timeout
		f.resp.Name, f.resp.Timeout = "agent-b", timeout
		f.resp.Items, f.resp.Defaults, f.resp.NumAlts = f.items, f.defaults, f.numAlts

		connA, connB := net.Pipe()
		rec := &recordingConn{Conn: connA}
		errCh := make(chan error, 1)
		go func() {
			_, err := serveOne(connB, f.resp)
			errCh <- err
		}()
		_, err := f.ini.RunConn(NewConn(rec), f.items, f.defaults, f.numAlts)
		if err != nil {
			t.Fatalf("%s: initiator: %v", f.name, err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("%s: responder: %v", f.name, err)
		}
		connA.Close()
		connB.Close()
		if n := frameCounts(t, rec.sent.Bytes())[f.exercises]; n < f.atLeast {
			t.Errorf("%s: initiator sent %d %v frames, the fixture is pinned for at least %d", f.name, n, f.exercises, f.atLeast)
		}
		fmt.Fprintf(&got, "%s initiator->responder %x\n", f.name, sha256.Sum256(rec.sent.Bytes()))
		fmt.Fprintf(&got, "%s responder->initiator %x\n", f.name, sha256.Sum256(rec.recv.Bytes()))
	}

	const golden = "testdata/session_transcript.sha256"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if string(want) != got.String() {
		t.Fatalf("session transcripts changed: a valid v4 byte stream is different\ngot:\n%swant:\n%s", got.String(), want)
	}
}
