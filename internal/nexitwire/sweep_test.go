package nexitwire

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/nexit"
)

// frame is one wire frame, as recorded or injected.
type frame struct {
	t       MsgType
	payload []byte
}

// tamper changes one frame of one direction of a session: it cuts the
// stream there (sub == nil) or replaces the frame with sub. dir 0 is
// initiator→responder, dir 1 responder→initiator; pos counts frames in
// that direction from zero. The zero tamper with dir -1 changes nothing.
type tamper struct {
	dir, pos int
	sub      *frame
}

var untampered = tamper{dir: -1}

// countingEval counts the calls that reach an evaluator.
type countingEval struct {
	nexit.Evaluator
	calls, commits int
}

func (c *countingEval) Prefs(items []nexit.Item, defaults []int) [][]int {
	c.calls++
	return c.Evaluator.Prefs(items, defaults)
}

func (c *countingEval) Commit(it nexit.Item, alt int) {
	c.calls++
	c.commits++
	c.Evaluator.Commit(it, alt)
}

func (c *countingEval) Revert(it nexit.Item, alt, def int) {
	c.calls++
	if r, ok := c.Evaluator.(nexit.Reverter); ok {
		r.Revert(it, alt, def)
	}
}

// pipe is an in-process link: every frame the initiator sends goes
// straight into the responder's step function, in the initiator's
// goroutine, with no connection and no clock. It plays the responder's
// I/O loop — AcceptHelloConn's opening frame, then ServeSessionConn —
// and a connection under it that closes when that loop returns.
type pipe struct {
	resp   *Responder
	eval   *countingEval // resp.Eval
	m      serving
	out    []byte // the responder's encode scratch
	tamper tamper
	budget int // frames both ways before the session counts as runaway

	n       [2]int     // frames offered per direction
	wire    [2][]frame // frames delivered per direction, after tampering
	aborts  [2]int     // Error frames each side emitted
	cut     [2]bool    // direction closed
	inbox   []frame    // responder frames the initiator has not read
	res     *nexit.Result
	err     error // the responder's error
	evalErr int   // evaluator calls when the responder failed
	faults  []string
}

// deliver counts a frame offered in direction dir and applies the
// tamper to it; false means the stream is cut and the frame lost.
func (p *pipe) deliver(dir int, f *frame) bool {
	if p.cut[dir] {
		return false
	}
	p.n[dir]++
	if p.tamper.dir == dir && p.tamper.pos == p.n[dir]-1 {
		if p.tamper.sub == nil {
			p.cut[dir] = true
			return false
		}
		*f = *p.tamper.sub
	}
	p.wire[dir] = append(p.wire[dir], *f)
	return true
}

// finished reports whether the responder's loop has returned.
func (p *pipe) finished() bool { return p.res != nil || p.err != nil }

// overBudget reports a session that has run past its frame budget.
func (p *pipe) overBudget() bool { return p.n[0]+p.n[1] > p.budget }

var errBudget = errors.New("nexitwire: frame budget exceeded")

func (p *pipe) send(t MsgType, payload []byte) error {
	if t == MsgError {
		p.aborts[0]++
	}
	if p.overBudget() {
		return errBudget
	}
	f := frame{t, append([]byte(nil), payload...)}
	if !p.deliver(0, &f) {
		if p.tamper.dir == 0 && !p.finished() {
			// The responder reads the end of the stream.
			p.err, p.evalErr = p.m.hangup(io.EOF), p.eval.calls
		}
		return nil
	}
	if p.err != nil {
		// The loop has returned; the machine must stay failed and
		// touch nothing, whatever arrives.
		if t, _, res, err := p.m.step(f.t, f.payload, p.out[:0]); t != 0 || res != nil || err != p.err {
			p.faults = append(p.faults, fmt.Sprintf("step after failure returned (%v, %v, %v)", t, res, err))
		}
		return nil
	}
	if p.res != nil {
		return nil // the next session's AcceptHelloConn would refuse it
	}
	var (
		reply MsgType
		body  []byte
		res   *nexit.Result
		err   error
	)
	if p.n[0] == 1 {
		h, herr := openingHello(f.t, f.payload)
		if herr != nil {
			// AcceptHelloConn refuses the frame; no machine was opened.
			p.m.err = herr
			p.err, p.evalErr = herr, p.eval.calls
			return nil
		}
		reply, body, res, err = p.m.open(p.resp, h, p.out[:0])
	} else {
		reply, body, res, err = p.m.step(f.t, f.payload, p.out[:0])
	}
	if reply != 0 {
		p.out = body[:0]
		if reply == MsgError {
			p.aborts[1]++
		}
		p.inbox = append(p.inbox, frame{reply, append([]byte(nil), body...)})
	}
	if err != nil {
		p.err, p.evalErr = err, p.eval.calls
	}
	p.res = res
	return nil
}

func (p *pipe) recv() (MsgType, []byte, error) {
	if p.overBudget() {
		return 0, nil, errBudget
	}
	if len(p.inbox) == 0 {
		if p.finished() || p.cut[1] {
			return 0, nil, io.EOF
		}
		// Both ends wait for each other: a real session stalls until
		// the exchange deadline.
		s := session{timeout: DefaultTimeout}
		return 0, nil, s.stallErr(0, os.ErrDeadlineExceeded)
	}
	f := p.inbox[0]
	p.inbox = p.inbox[1:]
	if !p.deliver(1, &f) {
		return 0, nil, io.EOF
	}
	return f.t, f.payload, nil
}

// runPipe runs one session of ini against resp over a pipe carrying tp
// and returns the pipe, with the responder's outcome on it, and the
// initiator's. A responder whose loop has not returned when the
// initiator does reads the end of the connection.
func runPipe(ini *Initiator, resp *Responder, items []nexit.Item, defaults []int, numAlts int, tp tamper, budget int) (*pipe, *nexit.Result, error) {
	eval := &countingEval{Evaluator: resp.Eval}
	resp.Eval = eval
	p := &pipe{resp: resp, eval: eval, tamper: tp, budget: budget}
	res, err := ini.run(new(remoteEvaluator).open(p, nil, numAlts), items, defaults, numAlts)
	if !p.finished() {
		p.err, p.evalErr = p.m.hangup(io.EOF), eval.calls
	}
	return p, res, err
}

// fixture is one of TestSessionTranscriptGolden's four sessions, built
// afresh (evaluators are stateful) for every run.
type fixture struct {
	name     string
	mk       func() (*Initiator, *Responder)
	items    []nexit.Item
	defaults []int
	numAlts  int
}

// pair builds the session's two endpoints.
func (f *fixture) pair() (*Initiator, *Responder) {
	ini, resp := f.mk()
	ini.Name, resp.Name = "agent-a", "agent-b"
	resp.Items, resp.Defaults, resp.NumAlts = f.items, f.defaults, f.numAlts
	return ini, resp
}

func (f *fixture) run(tp tamper, budget int) (*pipe, *nexit.Result, error) {
	ini, resp := f.pair()
	return runPipe(ini, resp, f.items, f.defaults, f.numAlts, tp, budget)
}

// transcriptFixtures returns the four sessions TestSessionTranscriptGolden
// pins; the firsts pool of TestSessionTamperSweep follows this order.
func transcriptFixtures(t testing.TB) []*fixture {
	s, items, defaults, numAlts := testUniverse(t)
	_, _, unwindItems, unwindDefaults := unwindFixture()
	return []*fixture{
		{"distance", func() (*Initiator, *Responder) {
			return &Initiator{Cfg: nexit.DefaultDistanceConfig(), Eval: nexit.NewDistanceEvaluator(s, nexit.SideA, 10)},
				&Responder{Eval: nexit.NewDistanceEvaluator(s, nexit.SideB, 10)}
		}, items, defaults, numAlts},
		{"unwind", func() (*Initiator, *Responder) {
			evalA, evalB, _, _ := unwindFixture()
			return &Initiator{Cfg: nexit.DefaultDistanceConfig(), Eval: evalA}, &Responder{Eval: evalB}
		}, unwindItems, unwindDefaults, 2},
		{"bandwidth", func() (*Initiator, *Responder) {
			return &Initiator{Metric: "bandwidth", Cfg: bandwidthConfig(), Eval: bandwidthEvaluator(s, nexit.SideA)},
				&Responder{Metric: "bandwidth", Eval: bandwidthEvaluator(s, nexit.SideB)}
		}, items, defaults, numAlts},
		{"veto", func() (*Initiator, *Responder) {
			return &Initiator{Cfg: nexit.DefaultDistanceConfig(), Eval: nexit.NewDistanceEvaluator(s, nexit.SideA, 10)},
				&Responder{
					Eval:   nexit.NewDistanceEvaluator(s, nexit.SideB, 10),
					Accept: func(AcceptRequest) bool { return false },
				}
		}, items, defaults, numAlts},
	}
}

// goldenDigests reads testdata/session_transcript.sha256 into a map
// from "<session> <direction>" to its hex digest.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("testdata/session_transcript.sha256")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for sc := bufio.NewScanner(bytes.NewReader(raw)); sc.Scan(); {
		if f := strings.Fields(sc.Text()); len(f) == 3 {
			out[f[0]+" "+f[1]] = f[2]
		}
	}
	return out
}

// streamDigest frames a direction's frames as the wire would and hashes
// the bytes.
func streamDigest(t *testing.T, frames []frame) string {
	t.Helper()
	var buf bytes.Buffer
	fw := frameWriter{w: &buf}
	for _, f := range frames {
		if err := fw.writeFrame(f.t, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// retiredFrames are the frame types v4 retired, each with a payload
// shaped as v3 sent it.
var retiredFrames = []frame{
	{5, []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 3}}, // accept-request: round, item, alt, class
	{6, []byte{1}},                // accept-response: accepted
	{7, []byte{0, 0, 0, 0, 0, 1}}, // commit: item, alt
}

// variants returns every tampering of frame orig: the cut, then each
// substitution — the first golden frame of every other type, the three
// retired types, orig less its last byte, orig plus one byte, and an
// Error frame.
func variants(orig frame, firsts []frame) []tamper {
	subs := make([]frame, 0, 16)
	for _, f := range firsts {
		if f.t != orig.t {
			subs = append(subs, f)
		}
	}
	subs = append(subs, retiredFrames...)
	subs = append(subs,
		frame{orig.t, orig.payload[:len(orig.payload)-1]},
		frame{orig.t, append(append([]byte(nil), orig.payload...), 0)},
		frame{MsgError, appendError(nil, &ErrorMsg{Reason: "injected"})},
	)
	out := []tamper{{}}
	for i := range subs {
		out = append(out, tamper{sub: &subs[i]})
	}
	return out
}

// samplePositions returns every position in [0, n) when k >= n, else k
// of them drawn by rng, always including the first and the last.
func samplePositions(n, k int, rng *rand.Rand) []int {
	if k >= n {
		k = n
	}
	pick := map[int]bool{0: true, n - 1: true}
	for len(pick) < k {
		pick[rng.Intn(n)] = true
	}
	out := make([]int, 0, len(pick))
	for i := 0; i < n; i++ {
		if pick[i] {
			out = append(out, i)
		}
	}
	return out
}

// TestSessionTamperSweep drives both state machines against each other
// in one goroutine, with no connection and no clock, over the four
// transcript-golden sessions, and tampers with one frame per case: it
// cuts the stream at that frame, or substitutes it (see variants), in
// either direction. Distance, unwind and bandwidth are enumerated at
// every frame position; veto (1739 frames) and, under -short, bandwidth
// are sampled with a fixed seed, first and last frame always included.
// Every case must
//
//  1. end without a panic inside twice the golden session's frames;
//  2. end in an error on at least one side, every error labelled
//     "nexitwire:";
//  3. leave the responder's evaluator alone once step has failed, and
//     have each side emit at most one Error frame;
//  4. when both sides succeed, agree on the whole outcome.
//
// A retired frame type must also fail its receiver with the labelled
// "unexpected msg(N) frame", sent to the peer in one Error frame.
//
// Two outcomes are the protocol's residual, not bugs, and are counted
// rather than failed: the initiator succeeds while the responder's
// audit fails (the Done or a Revert, which expect no reply, was
// tampered with), and the responder's audit passes on a Done that
// arrives early while the initiator goes on to fail. Neither side of a
// Hello...Done session can tell that the other one committed.
func TestSessionTamperSweep(t *testing.T) {
	fixtures := transcriptFixtures(t)
	digests := goldenDigests(t)

	// Record the golden frames in-process; their bytes must be what
	// TestSessionTranscriptGolden pins on a real connection.
	golden := make([][2][]frame, len(fixtures))
	var firsts []frame
	seen := map[MsgType]bool{}
	for i, f := range fixtures {
		p, _, err := f.run(untampered, 1<<20)
		if err != nil || p.err != nil {
			t.Fatalf("%s: untampered session failed: initiator %v, responder %v", f.name, err, p.err)
		}
		golden[i] = p.wire
		for dir, name := range []string{"initiator->responder", "responder->initiator"} {
			if got, want := streamDigest(t, p.wire[dir]), digests[f.name+" "+name]; got != want {
				t.Fatalf("%s %s: in-process frames hash to %s, the golden transcript is %s", f.name, name, got, want)
			}
			for _, fr := range p.wire[dir] {
				if !seen[fr.t] {
					seen[fr.t] = true
					firsts = append(firsts, fr)
				}
			}
		}
	}

	sample := map[string]int{"veto": 3}
	if testing.Short() {
		sample = map[string]int{"bandwidth": 8, "veto": 2}
	}
	rng := rand.New(rand.NewSource(26))
	var cases, oneSided, responderOnly int
	for i, f := range fixtures {
		frames := len(golden[i][0]) + len(golden[i][1])
		fixtureCases := 0
		for dir := 0; dir < 2; dir++ {
			k := len(golden[i][dir])
			if n, ok := sample[f.name]; ok {
				k = n
			}
			for _, pos := range samplePositions(len(golden[i][dir]), k, rng) {
				orig := golden[i][dir][pos]
				for _, tp := range variants(orig, firsts) {
					tp.dir, tp.pos = dir, pos
					fixtureCases++
					label := fmt.Sprintf("%s dir %d frame %d (%v)", f.name, dir, pos, orig.t)
					if tp.sub == nil {
						label += " cut"
					} else {
						label += fmt.Sprintf(" -> %v [%d bytes]", tp.sub.t, len(tp.sub.payload))
					}
					switch checkTamperCase(t, label, f, tp, 2*frames) {
					case oneSidedInitiator:
						oneSided++
					case oneSidedResponder:
						responderOnly++
					}
				}
			}
		}
		cases += fixtureCases
		t.Logf("%s: %d frames, %d cases", f.name, frames, fixtureCases)
	}
	t.Logf("%d cases; %d one-sided (initiator succeeded, responder audit failed); %d responder-only (responder audit passed, initiator failed)",
		cases, oneSided, responderOnly)
}

type caseOutcome int

const (
	bothFailed caseOutcome = iota
	oneSidedInitiator
	oneSidedResponder
)

// checkTamperCase runs one tampered session and checks the sweep's
// properties on it.
func checkTamperCase(t *testing.T, label string, f *fixture, tp tamper, budget int) (outcome caseOutcome) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: panic: %v", label, r)
		}
	}()
	p, res, err := f.run(tp, budget)
	if p.overBudget() {
		t.Errorf("%s: ran past its budget of %d frames", label, budget)
	}
	for _, fault := range p.faults {
		t.Errorf("%s: %s", label, fault)
	}
	if p.eval.calls != p.evalErr && p.err != nil {
		t.Errorf("%s: responder evaluator called %d times after step failed", label, p.eval.calls-p.evalErr)
	}
	for side, e := range []error{err, p.err} {
		if e != nil && !strings.HasPrefix(e.Error(), "nexitwire:") {
			t.Errorf("%s: side %d error is not labelled: %v", label, side, e)
		}
		if p.aborts[side] > 1 {
			t.Errorf("%s: side %d sent %d Error frames", label, side, p.aborts[side])
		}
	}
	if tp.sub != nil && tp.sub.t >= 5 && tp.sub.t <= 7 && !(tp.dir == 0 && tp.pos == 0) {
		// The receiver names the frame and tells the peer once. (A
		// first frame that is no Hello is refused by AcceptHelloConn,
		// whose caller closes the connection.)
		want := fmt.Sprintf("unexpected %v frame", tp.sub.t)
		recvErr := []error{p.err, err}[tp.dir]
		if recvErr == nil || !strings.Contains(recvErr.Error(), want) {
			t.Errorf("%s: receiver ended with %v, want %q", label, recvErr, want)
		}
		if n := p.aborts[1-tp.dir]; n != 1 {
			t.Errorf("%s: receiver sent %d Error frames, want 1", label, n)
		}
	}
	switch {
	case err != nil && p.err != nil:
	case err == nil && p.err == nil:
		// No variant is byte-identical to the frame it replaces, so
		// this breaks property 2; property 4 says whether it also
		// desynced the two sides.
		agree := reflect.DeepEqual(p.res.Assign, res.Assign) && p.res.GainA == res.GainA && p.res.GainB == res.GainB &&
			p.res.Rounds == res.Rounds && p.res.Stopped == res.Stopped
		t.Errorf("%s: tampered session succeeded on both sides (outcomes agree: %v)", label, agree)
	case err == nil:
		return oneSidedInitiator
	default:
		return oneSidedResponder
	}
	return bothFailed
}
