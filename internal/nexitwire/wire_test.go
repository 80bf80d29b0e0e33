package nexitwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gen"
	"repro/internal/nexit"
	"repro/internal/pairsim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// --- codec tests ------------------------------------------------------

func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	fw := frameWriter{w: &buf}
	payload := []byte{1, 2, 3, 4, 5}
	if err := fw.writeFrame(MsgRevert, payload); err != nil {
		t.Fatal(err)
	}
	typ, body, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgRevert || !bytes.Equal(body, payload) {
		t.Errorf("roundtrip = %v %v", typ, body)
	}
}

func TestFrameGuards(t *testing.T) {
	// Oversized frame.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := readFrame(&buf); err == nil {
		t.Error("oversized frame accepted")
	}
	// Empty frame.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0})
	if _, _, err := readFrame(&buf); err == nil {
		t.Error("empty frame accepted")
	}
	// Truncated body.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 9, 1, 2})
	if _, _, err := readFrame(&buf); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestHelloRoundtrip(t *testing.T) {
	for _, h := range []*Hello{
		// v1 frames carry no metric; the codec must still round-trip
		// them so old peers are identified (and version-rejected)
		// rather than choking on framing.
		{Version: 1, Name: "isp-a agent", NumAlts: 5, NumItems: 1234, WorkloadHash: 0xDEADBEEF12345678},
		{Version: 2, Name: "isp-a agent", NumAlts: 5, NumItems: 1234, WorkloadHash: 0xDEADBEEF12345678, Metric: "bandwidth"},
		{Version: 3, Name: "isp-a agent", NumAlts: 5, NumItems: 1234, WorkloadHash: 0xDEADBEEF12345678, Metric: "distance", Epoch: 97},
	} {
		got, err := decodeHello(appendHello(nil, h))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(h, got) {
			t.Errorf("got %+v, want %+v", got, h)
		}
	}
}

// TestHelloVersionCompat pins the compat rule: a Hello from a newer
// version with unknown trailing fields still decodes (so the version
// check can reject it cleanly), while same-version trailing garbage is
// a framing error.
func TestHelloVersionCompat(t *testing.T) {
	future := append(appendHello(nil, &Hello{
		Version: Version + 1, Name: "isp-z", NumAlts: 3, NumItems: 9,
		WorkloadHash: 42, Metric: "distance", Epoch: 7,
	}), 0xAB, 0xCD) // a hypothetical v4 field we do not know
	h, err := decodeHello(future)
	if err != nil {
		t.Fatalf("newer-version hello with unknown fields did not decode: %v", err)
	}
	if h.Version != Version+1 || h.Metric != "distance" || h.Epoch != 7 {
		t.Errorf("decoded %+v from the future hello", h)
	}

	current := append(appendHello(nil, &Hello{Version: Version, Name: "isp-a", Metric: "distance"}), 0xAB)
	if _, err := decodeHello(current); err == nil {
		t.Error("same-version hello with trailing bytes decoded")
	}
}

// TestEpochSkewReasonRoundtrip pins the canonical skew rendering: the
// reason string a responder sends must parse back into the same typed
// error on the initiator, or the self-healing retry can never trigger.
func TestEpochSkewReasonRoundtrip(t *testing.T) {
	want := &EpochSkewError{Initiator: 3, Responder: 12}
	_, body := abort(nil, fmt.Errorf("nexitwire: %w", want))
	err := peerError(body)
	var got *EpochSkewError
	if !errors.As(err, &got) {
		t.Fatalf("canonical reason did not re-type: %v", err)
	}
	if *got != *want {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	if _, ok := parseEpochSkew("metric mismatch: whatever"); ok {
		t.Error("unrelated reason parsed as an epoch skew")
	}
}

// helloRejections crosses endpoint configurations that must not
// negotiate. On the in-process pipe each session must be refused at
// the Hello, before the responder's evaluator is asked anything, with
// the reasons check expects on each side.
var helloRejections = []struct {
	name  string
	setup func(ini *Initiator, resp *Responder)
	// v1, when set, replaces the initiator's Hello with a v1 one.
	v1    bool
	check func(t *testing.T, iniErr, respErr error, respAbort string)
}{
	{
		name: "metric",
		setup: func(ini *Initiator, resp *Responder) {
			ini.Metric, resp.Metric = "bandwidth", "distance"
		},
		check: func(t *testing.T, iniErr, respErr error, _ string) {
			if iniErr == nil || !strings.Contains(iniErr.Error(), "peer error") || !strings.Contains(iniErr.Error(), "metric mismatch") {
				t.Errorf("initiator error is not the peer's labelled rejection: %v", iniErr)
			}
			if respErr == nil || !strings.Contains(respErr.Error(), `peer negotiates "bandwidth"`) ||
				!strings.Contains(respErr.Error(), `we negotiate "distance"`) {
				t.Errorf("responder reason does not name both metrics: %v", respErr)
			}
		},
	},
	{
		// The rejection must surface on the initiator as a typed
		// *EpochSkewError carrying both indices — the handle a daemon
		// needs to fast-forward and retry.
		name: "epoch",
		setup: func(ini *Initiator, resp *Responder) {
			ini.Epoch, resp.Epoch = 5, 9
		},
		check: func(t *testing.T, iniErr, respErr error, _ string) {
			for side, err := range []error{iniErr, respErr} {
				var skew *EpochSkewError
				if !errors.As(err, &skew) || skew.Initiator != 5 || skew.Responder != 9 {
					t.Errorf("side %d error is not the typed (5, 9) epoch skew: %v", side, err)
				}
			}
		},
	},
	{
		name: "version",
		v1:   true,
		check: func(t *testing.T, _, respErr error, respAbort string) {
			if !strings.Contains(respAbort, "version 1") {
				t.Errorf("rejection reason does not name the version: %q", respAbort)
			}
			if respErr == nil || !strings.Contains(respErr.Error(), "version") {
				t.Errorf("responder error: %v", respErr)
			}
		},
	},
	{
		name: "universe",
		setup: func(_ *Initiator, resp *Responder) {
			// One item short: hash mismatch.
			resp.Items, resp.Defaults = resp.Items[:len(resp.Items)-1], resp.Defaults[:len(resp.Defaults)-1]
		},
		check: func(t *testing.T, iniErr, respErr error, _ string) {
			if iniErr == nil {
				t.Error("initiator succeeded despite universe mismatch")
			}
			if respErr == nil {
				t.Error("responder accepted mismatched universe")
			}
		},
	},
}

// helloRejection runs the helloRejections row with the given name.
func helloRejection(t *testing.T, name string) {
	s, items, defaults, numAlts := testUniverse(t)
	for _, c := range helloRejections {
		if c.name != name {
			continue
		}
		ini := &Initiator{Name: "agent-a", Cfg: nexit.DefaultDistanceConfig(), Eval: nexit.NewDistanceEvaluator(s, nexit.SideA, 10)}
		resp := &Responder{
			Name: "agent-b", Eval: nexit.NewDistanceEvaluator(s, nexit.SideB, 10),
			Items: items, Defaults: defaults, NumAlts: numAlts,
		}
		if c.setup != nil {
			c.setup(ini, resp)
		}
		tp := untampered
		if c.v1 {
			tp = tamper{dir: 0, pos: 0, sub: &frame{MsgHello, appendHello(nil, &Hello{
				Version: 1, Name: "old-agent",
				NumAlts: uint16(numAlts), NumItems: uint32(len(items)),
				WorkloadHash: WorkloadHash(items, defaults, numAlts),
			})}}
		}
		p, _, err := runPipe(ini, resp, items, defaults, numAlts, tp, 8)
		var reason string
		if len(p.wire[1]) != 1 || p.wire[1][0].t != MsgError {
			t.Errorf("responder answered the Hello with %d frames, want one Error frame", len(p.wire[1]))
		} else if em, derr := decodeError(p.wire[1][0].payload); derr == nil {
			reason = em.Reason
		}
		if p.eval.calls != 0 {
			t.Errorf("a rejected Hello reached the responder's evaluator %d times", p.eval.calls)
		}
		c.check(t, err, p.err, reason)
		return
	}
	t.Fatalf("no Hello rejection %q", name)
}

func TestWireMetricMismatch(t *testing.T)          { helloRejection(t, "metric") }
func TestWireEpochSkewRejected(t *testing.T)       { helloRejection(t, "epoch") }
func TestWireVersionMismatchRejected(t *testing.T) { helloRejection(t, "version") }
func TestWireHelloMismatch(t *testing.T)           { helloRejection(t, "universe") }

func TestPrefsRoundtrip(t *testing.T) {
	req := &PrefsRequest{ItemIDs: []uint32{3, 9, 12}, Defaults: []uint16{0, 2, 1}}
	gotReq, err := fresh(decodePrefsRequest, appendPrefsRequest(nil, req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, gotReq) {
		t.Errorf("request roundtrip: %+v", gotReq)
	}
	resp := &PrefsResponse{Prefs: [][]int8{{0, -3, 10}, {5, 0, -10}, {1, 2, 3}}}
	gotResp, err := freshPrefsResponse(appendPrefsResponse(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, gotResp) {
		t.Errorf("response roundtrip: %+v", gotResp)
	}
}

func TestPrefsResponseProperty(t *testing.T) {
	f := func(raw [][]int8) bool {
		// Normalize to rectangular with <= 8 columns.
		rows := make([][]int8, 0, len(raw))
		cols := 3
		for _, r := range raw {
			row := make([]int8, cols)
			copy(row, r)
			rows = append(rows, row)
		}
		m := &PrefsResponse{Prefs: rows}
		got, err := freshPrefsResponse(appendPrefsResponse(nil, m))
		if err != nil {
			return false
		}
		if len(got.Prefs) != len(rows) {
			return false
		}
		for i := range rows {
			if !reflect.DeepEqual(got.Prefs[i], rows[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOtherMessageRoundtrips(t *testing.T) {
	r := &Revert{ItemID: 9, Alt: 2, Def: 1}
	if got, err := fresh(decodeRevert, appendRevert(nil, r)); err != nil || !reflect.DeepEqual(r, got) {
		t.Errorf("revert: %+v %v", got, err)
	}
	d := &Done{Assign: []uint16{0, 1, 2}, GainA: -5, GainB: 12, StopReason: 2, Rounds: 99}
	if got, err := fresh(decodeDone, appendDone(nil, d)); err != nil || !reflect.DeepEqual(d, got) {
		t.Errorf("done: %+v %v", got, err)
	}
	e := &ErrorMsg{Reason: "mismatch"}
	if got, err := decodeError(appendError(nil, e)); err != nil || got.Reason != "mismatch" {
		t.Errorf("error: %+v %v", got, err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeHello([]byte{1}); err == nil {
		t.Error("short hello accepted")
	}
	if _, err := fresh(decodePrefsRequest, []byte{0, 0, 0, 99}); err == nil {
		t.Error("lying prefs request accepted")
	}
	if _, err := freshPrefsResponse([]byte{0, 0, 1, 0, 0, 8}); err == nil {
		t.Error("lying prefs response accepted")
	}
	// Zero rows of 0x3030 columns: the encoder writes zero columns for
	// zero rows, so these bytes could never re-encode to themselves.
	if _, err := freshPrefsResponse([]byte{0, 0, 0, 0, 0x30, 0x30}); err == nil {
		t.Error("prefs response with columns but no rows accepted")
	}
	if _, err := fresh(decodeRevert, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}); err == nil {
		t.Error("revert with trailing bytes accepted")
	}
}

// --- session tests ----------------------------------------------------

// testUniverse builds a small real negotiation setup from the generator.
func testUniverse(t testing.TB) (*pairsim.System, []nexit.Item, []int, int) {
	return pairUniverse(testPairs(t)[0])
}

// testPairs enumerates the pairs of a small generated universe.
func testPairs(t testing.TB) []*topology.Pair {
	t.Helper()
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 10
	isps, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := topology.AllPairs(isps, 2, true)
	if len(pairs) == 0 {
		t.Fatal("no pairs in test dataset")
	}
	return pairs
}

// pairUniverse is pair's negotiation table: both directions' identical
// workloads, each flow defaulting to its early exit.
func pairUniverse(pair *topology.Pair) (*pairsim.System, []nexit.Item, []int, int) {
	s := pairsim.New(pair, nil)
	rev := s.Reverse()
	wAB := traffic.New(pair.A, pair.B, traffic.Identical, nil)
	wBA := traffic.New(pair.B, pair.A, traffic.Identical, nil)
	items := nexit.Items(wAB.Flows, wBA.Flows)
	defaults := make([]int, len(items))
	for i, it := range items {
		if it.Dir == nexit.AtoB {
			defaults[i] = s.EarlyExit(it.Flow)
		} else {
			defaults[i] = rev.EarlyExit(it.Flow)
		}
	}
	return s, items, defaults, s.NumAlternatives()
}

// runWireSession negotiates over the given connection pair and returns
// both endpoints' results.
func runWireSession(t *testing.T, connA, connB net.Conn, s *pairsim.System, items []nexit.Item, defaults []int, numAlts int) (*nexit.Result, *nexit.Result) {
	t.Helper()
	resp := &Responder{
		Name:     "agent-b",
		Eval:     nexit.NewDistanceEvaluator(s, nexit.SideB, 10),
		Items:    items,
		Defaults: defaults,
		NumAlts:  numAlts,
		Timeout:  5 * time.Second,
	}
	type respOut struct {
		res *nexit.Result
		err error
	}
	ch := make(chan respOut, 1)
	go func() {
		r, err := serveOne(connB, resp)
		ch <- respOut{r, err}
	}()

	ini := &Initiator{
		Name:    "agent-a",
		Cfg:     nexit.DefaultDistanceConfig(),
		Eval:    nexit.NewDistanceEvaluator(s, nexit.SideA, 10),
		Timeout: 5 * time.Second,
	}
	res, err := ini.RunConn(NewConn(connA), items, defaults, numAlts)
	if err != nil {
		t.Fatalf("initiator: %v", err)
	}
	out := <-ch
	if out.err != nil {
		t.Fatalf("responder: %v", out.err)
	}
	return res, out.res
}

// TestWireBandwidthMatchesInProcess runs a full bandwidth-metric
// session — stateful evaluators, mid-session preference reassignment —
// over the wire and pins it to the in-process engine. This is the
// non-distance wire path the daemon layer builds on.
func TestWireBandwidthMatchesInProcess(t *testing.T) {
	s, items, defaults, numAlts := testUniverse(t)
	mk := func(side nexit.Side) nexit.Evaluator { return bandwidthEvaluator(s, side) }
	cfg := bandwidthConfig()
	ref, err := nexit.Negotiate(cfg, mk(nexit.SideA), mk(nexit.SideB), items, defaults, numAlts)
	if err != nil {
		t.Fatal(err)
	}

	connA, connB := net.Pipe()
	defer connA.Close()
	defer connB.Close()
	resp := &Responder{
		Name: "agent-b", Metric: "bandwidth",
		Eval:  mk(nexit.SideB),
		Items: items, Defaults: defaults, NumAlts: numAlts,
		Timeout: 5 * time.Second,
	}
	type respOut struct {
		res *nexit.Result
		err error
	}
	ch := make(chan respOut, 1)
	go func() {
		r, err := serveOne(connB, resp)
		ch <- respOut{r, err}
	}()
	ini := &Initiator{
		Name: "agent-a", Metric: "bandwidth",
		Cfg:  cfg,
		Eval: mk(nexit.SideA), Timeout: 5 * time.Second,
	}
	res, err := ini.RunConn(NewConn(connA), items, defaults, numAlts)
	if err != nil {
		t.Fatalf("initiator: %v", err)
	}
	out := <-ch
	if out.err != nil {
		t.Fatalf("responder: %v", out.err)
	}
	if !reflect.DeepEqual(ref.Assign, res.Assign) || !reflect.DeepEqual(ref.Assign, out.res.Assign) {
		t.Error("bandwidth wire session diverged from the in-process engine")
	}
	if res.GainA != ref.GainA || out.res.GainB != ref.GainB {
		t.Errorf("gains: wire (%d,%d), in-process (%d,%d)", res.GainA, out.res.GainB, ref.GainA, ref.GainB)
	}
}

func TestWireMatchesInProcess(t *testing.T) {
	s, items, defaults, numAlts := testUniverse(t)

	// In-process reference run.
	ref, err := nexit.Negotiate(nexit.DefaultDistanceConfig(),
		nexit.NewDistanceEvaluator(s, nexit.SideA, 10),
		nexit.NewDistanceEvaluator(s, nexit.SideB, 10),
		items, defaults, numAlts)
	if err != nil {
		t.Fatal(err)
	}

	connA, connB := net.Pipe()
	defer connA.Close()
	defer connB.Close()
	res, sess := runWireSession(t, connA, connB, s, items, defaults, numAlts)

	if !reflect.DeepEqual(ref.Assign, res.Assign) {
		t.Error("wire negotiation diverged from in-process result")
	}
	if !reflect.DeepEqual(ref.Assign, sess.Assign) {
		t.Error("responder's assignment view diverged")
	}
	if sess.GainB != ref.GainB || res.GainA != ref.GainA {
		t.Errorf("gains: wire (%d,%d), ref (%d,%d)", res.GainA, sess.GainB, ref.GainA, ref.GainB)
	}
}

func TestWireOverTCP(t *testing.T) {
	s, items, defaults, numAlts := testUniverse(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type acc struct {
		conn net.Conn
		err  error
	}
	ch := make(chan acc, 1)
	go func() {
		c, err := ln.Accept()
		ch <- acc{c, err}
	}()
	connA, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer connA.Close()
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	defer a.conn.Close()

	res, sess := runWireSession(t, connA, a.conn, s, items, defaults, numAlts)
	if res.Negotiated == 0 {
		t.Error("nothing negotiated over TCP")
	}
	if len(sess.Assign) != len(items) {
		t.Error("responder assignment incomplete")
	}
}

func TestWireVeto(t *testing.T) {
	s, items, defaults, numAlts := testUniverse(t)
	connA, connB := net.Pipe()
	defer connA.Close()
	defer connB.Close()

	vetoes := 0
	resp := &Responder{
		Name: "agent-b",
		Eval: nexit.NewDistanceEvaluator(s, nexit.SideB, 10),
		Accept: func(p AcceptRequest) bool {
			vetoes++
			return false // veto everything
		},
		Items: items, Defaults: defaults, NumAlts: numAlts,
		Timeout: 5 * time.Second,
	}
	done := make(chan *nexit.Result, 1)
	go func() {
		r, err := serveOne(connB, resp)
		if err != nil {
			t.Error(err)
		}
		done <- r
	}()
	ini := &Initiator{
		Name: "agent-a", Cfg: nexit.DefaultDistanceConfig(),
		Eval:    nexit.NewDistanceEvaluator(s, nexit.SideA, 10),
		Timeout: 5 * time.Second,
	}
	res, err := ini.RunConn(NewConn(connA), items, defaults, numAlts)
	if err != nil {
		t.Fatal(err)
	}
	sess := <-done
	if vetoes == 0 {
		t.Fatal("responder was never consulted")
	}
	// With everything vetoed, no item can move off its default.
	for i, a := range sess.Assign {
		if a != defaults[i] {
			t.Errorf("item %d moved to %d despite total veto", i, a)
		}
	}
	if res.GainB != 0 {
		t.Errorf("GainB = %d under total veto", res.GainB)
	}
}

func TestWirePrefBoundTooLarge(t *testing.T) {
	ini := &Initiator{Cfg: nexit.Config{PrefBound: 1000}}
	if _, err := ini.RunConn(nil, nil, nil, 1); err == nil ||
		!strings.Contains(err.Error(), "int8") {
		t.Errorf("oversized bound not rejected: %v", err)
	}
}

func TestWorkloadHash(t *testing.T) {
	items := []nexit.Item{
		{ID: 0, Flow: traffic.Flow{ID: 0, Src: 1, Dst: 2, Size: 1.5}, Dir: nexit.AtoB},
		{ID: 1, Flow: traffic.Flow{ID: 1, Src: 2, Dst: 1, Size: 2}, Dir: nexit.BtoA},
	}
	defaults := []int{0, 1}
	h1 := WorkloadHash(items, defaults, 3)
	if h2 := WorkloadHash(items, defaults, 3); h1 != h2 {
		t.Error("hash not deterministic")
	}
	if h2 := WorkloadHash(items, defaults, 4); h1 == h2 {
		t.Error("hash ignores numAlts")
	}
	if h2 := WorkloadHash(items, []int{1, 1}, 3); h1 == h2 {
		t.Error("hash ignores defaults")
	}
	mutated := append([]nexit.Item(nil), items...)
	mutated[0].Flow.Size = 9
	if h2 := WorkloadHash(mutated, defaults, 3); h1 == h2 {
		t.Error("hash ignores flow sizes")
	}
}

// fnvReference is WorkloadHash as hash/fnv computes it: 64-bit FNV-1a
// over every field as eight big-endian bytes, one Write per field.
func fnvReference(items []nexit.Item, defaults []int, numAlts int) uint64 {
	h := fnv.New64a()
	put := func(v uint64) { h.Write(binary.BigEndian.AppendUint64(nil, v)) }
	put(uint64(numAlts))
	put(uint64(len(items)))
	for i, it := range items {
		put(uint64(it.ID))
		put(uint64(it.Flow.Src))
		put(uint64(it.Flow.Dst))
		put(math.Float64bits(it.Flow.Size))
		put(uint64(it.Dir))
		put(uint64(defaults[i]))
	}
	return h.Sum64()
}

// TestWorkloadHashMatchesFNV pins the zero-run fold to hash/fnv's
// 64-bit FNV-1a over the same bytes — every field as eight big-endian
// bytes — on the empty table, on tables of edge values and on random
// ones: the value travels in the Hello, so a peer built before the fold
// must compute the same number.
func TestWorkloadHashMatchesFNV(t *testing.T) {
	reference := fnvReference
	if got, want := WorkloadHash(nil, nil, 0), reference(nil, nil, 0); got != want {
		t.Errorf("empty table: WorkloadHash = %#x, hash/fnv gives %#x", got, want)
	}
	// Edge values: fields with no, one or seven zero bytes, both ends'
	// zero runs (1.0 is 0x3FF0 and six zero bytes), the sign bit alone,
	// a negative default sign-extending to eight 0xFF bytes, and sizes
	// whose bits are zero, the sign, +Inf or a NaN payload.
	ints := []uint64{0, 1, 255, 256, 1 << 63}
	sizes := []float64{0, math.Copysign(0, -1), 1, math.Inf(1), math.Float64frombits(0x7FF8_0000_DEAD_BEEF)}
	for _, v := range ints {
		for _, size := range sizes {
			n := int(v)
			items := []nexit.Item{
				{ID: n, Flow: traffic.Flow{Src: n, Dst: n, Size: size}, Dir: nexit.Direction(n)},
				{ID: n, Flow: traffic.Flow{Src: 0, Dst: 1, Size: size}, Dir: nexit.BtoA},
			}
			defaults := []int{-1, n}
			for _, numAlts := range []int{0, n} {
				if got, want := WorkloadHash(items, defaults, numAlts), reference(items, defaults, numAlts); got != want {
					t.Errorf("field %#x, size %#x, numAlts %d: WorkloadHash = %#x, hash/fnv gives %#x",
						v, math.Float64bits(size), numAlts, got, want)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		items := make([]nexit.Item, rng.Intn(40))
		defaults := make([]int, len(items))
		for i := range items {
			items[i] = nexit.Item{
				ID:   rng.Intn(1 << 20),
				Flow: traffic.Flow{Src: rng.Intn(1 << 16), Dst: rng.Intn(1 << 16), Size: rng.NormFloat64() * 1e3},
				Dir:  nexit.Direction(rng.Intn(2)),
			}
			defaults[i] = rng.Intn(8) - 1 // a negative default sign-extends to eight 0xFF bytes
		}
		numAlts := rng.Intn(9)
		if got, want := WorkloadHash(items, defaults, numAlts), reference(items, defaults, numAlts); got != want {
			t.Fatalf("trial %d (%d items): WorkloadHash = %#x, hash/fnv gives %#x", trial, len(items), got, want)
		}
	}
}

// FuzzWorkloadHash checks WorkloadHash against fnvReference on
// arbitrary tables: every 48 bytes of raw are one item's ID, source,
// destination, size bits, direction and default, big-endian.
func FuzzWorkloadHash(f *testing.F) {
	var edges []byte
	for _, v := range []uint64{0, 1, 255, 256, 1 << 63, math.MaxUint64, math.Float64bits(1), 0x7FF8_0000_DEAD_BEEF} {
		for field := 0; field < 6; field++ {
			edges = binary.BigEndian.AppendUint64(edges, v)
		}
	}
	f.Add(0, []byte(nil))
	f.Add(2, edges)
	f.Fuzz(func(t *testing.T, numAlts int, raw []byte) {
		n := len(raw) / 48
		items, defaults := make([]nexit.Item, n), make([]int, n)
		for i := range items {
			var w [6]uint64
			for k := range w {
				w[k] = binary.BigEndian.Uint64(raw[48*i+8*k:])
			}
			items[i] = nexit.Item{
				ID:   int(w[0]),
				Flow: traffic.Flow{Src: int(w[1]), Dst: int(w[2]), Size: math.Float64frombits(w[3])},
				Dir:  nexit.Direction(w[4]),
			}
			defaults[i] = int(w[5])
		}
		if got, want := WorkloadHash(items, defaults, numAlts), fnvReference(items, defaults, numAlts); got != want {
			t.Fatalf("%d items, numAlts %d: WorkloadHash = %#x, hash/fnv gives %#x", n, numAlts, got, want)
		}
	})
}

// TestWireUniverseHasTrades checks that the wire tests' universe gives
// them something to negotiate: for some item, some alternative shortens
// the two ISPs' summed own-network distance.
func TestWireUniverseHasTrades(t *testing.T) {
	s, items, defaults, _ := testUniverse(t)
	dA := nexit.NewDistanceEvaluator(s, nexit.SideA, 10).RawDeltas(items, defaults)
	dB := nexit.NewDistanceEvaluator(s, nexit.SideB, 10).RawDeltas(items, defaults)
	for i := range dA {
		for k := range dA[i] {
			if dA[i][k]+dB[i][k] > 0 {
				return
			}
		}
	}
	t.Fatal("test universe has no joint gains: the wire tests would negotiate nothing")
}

// staticItems builds n unit items with defaults at alternative 0.
func staticItems(n int) ([]nexit.Item, []int) {
	items := make([]nexit.Item, n)
	defaults := make([]int, n)
	for i := 0; i < n; i++ {
		items[i] = nexit.Item{ID: i, Flow: traffic.Flow{ID: i, Size: 1}}
	}
	return items, defaults
}

// TestWireUnwind forces the engine's terminal unwind (both trades dip B,
// B never recovers, so they revert) and checks the responder's audited
// view ends back at the defaults.
func TestWireUnwind(t *testing.T) {
	evalA, evalB, items, defaults := unwindFixture()

	ref, err := nexit.Negotiate(nexit.DefaultDistanceConfig(), evalA, evalB, items, defaults, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Reverted == 0 {
		t.Fatalf("scenario did not trigger the unwind: %+v", ref)
	}
	if ref.GainA < 0 || ref.GainB < 0 {
		t.Fatalf("unwind left a deficit: gains (%d,%d)", ref.GainA, ref.GainB)
	}

	connA, connB := net.Pipe()
	defer connA.Close()
	defer connB.Close()
	resp := &Responder{
		Name: "agent-b", Eval: evalB,
		Items: items, Defaults: defaults, NumAlts: 2,
		Timeout: 5 * time.Second,
	}
	ch := make(chan struct {
		res *nexit.Result
		err error
	}, 1)
	go func() {
		r, err := serveOne(connB, resp)
		ch <- struct {
			res *nexit.Result
			err error
		}{r, err}
	}()
	ini := &Initiator{
		Name: "agent-a", Cfg: nexit.DefaultDistanceConfig(),
		Eval: evalA, Timeout: 5 * time.Second,
	}
	res, err := ini.RunConn(NewConn(connA), items, defaults, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := <-ch
	if out.err != nil {
		t.Fatalf("responder audit failed: %v", out.err)
	}
	if !reflect.DeepEqual(res.Assign, out.res.Assign) {
		t.Errorf("views diverged: %v vs %v", res.Assign, out.res.Assign)
	}
	if out.res.GainB != res.GainB {
		t.Errorf("responder gain %d, initiator says %d", out.res.GainB, res.GainB)
	}
	if out.res.Assign[0] != defaults[0] {
		t.Error("the dipping trade was not reverted to its default")
	}
	if out.res.Assign[2] != 1 {
		t.Error("B's winning trade should survive the unwind")
	}
}
