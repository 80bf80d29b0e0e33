package mesh

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// FaultPlan injects deterministic failures into a wire run so tests and
// CI can prove the mesh self-heals: after every injected fault the run
// must still converge to the exact serial reference result, pair by
// pair, with zero operator intervention (the epoch-resync handshake,
// DESIGN.md §7). Each fault names its target pair by index into the
// mesh's deterministic pair list (the zero value targets the first
// pair, the historical schedule), so seeded schedules can spread faults
// over many pairs while staying reproducible.
//
// Epoch indices are zero-based and epoch 0 is a valid target; set an
// epoch field negative to disable that fault.
type FaultPlan struct {
	// KillConnEpoch kills the KillPair-th pair's connection mid-session
	// during that epoch: the session fails on both ends, neither
	// controller advances, and the pair must redial and re-run the
	// epoch on a retry.
	KillConnEpoch int
	// RestartEpoch tears the RestartPair-th pair's responder agent down
	// after that epoch completes and rebuilds it from scratch — fresh
	// controllers at epoch 0, new listener — so every pair involving it
	// must epoch-resync to continue.
	RestartEpoch int
	// KillPair and RestartPair select the target pairs. Indices are
	// normalized modulo the mesh's pair count, so a seeded plan works
	// for any mesh size.
	KillPair    int
	RestartPair int
}

// faultTarget normalizes a pair index against the mesh's pair count.
func faultTarget(idx, n int) int {
	if n <= 0 {
		return 0
	}
	idx %= n
	if idx < 0 {
		idx += n
	}
	return idx
}

// faultAttempts bounds how many times a faulted run re-drives one epoch
// before giving up. One retry heals any single injected fault; the
// headroom covers a kill and a restart landing near each other.
const faultAttempts = 4

// dialHolder routes dials to an agent's current listener, so a
// restarted agent (new listener, possibly a new TCP port) is reachable
// through the dial closures its peers captured at wiring time. It keeps
// the connections it dialed, so Run can hang up their initiator ends.
type dialHolder struct {
	fn atomic.Value // func() (net.Conn, error)

	mu     sync.Mutex
	dialed []net.Conn
}

func (h *dialHolder) set(fn func() (net.Conn, error)) { h.fn.Store(fn) }

func (h *dialHolder) dial() (net.Conn, error) {
	c, err := h.fn.Load().(func() (net.Conn, error))()
	if err == nil {
		h.mu.Lock()
		h.dialed = append(h.dialed, c)
		h.mu.Unlock()
	}
	return c, err
}

// hangUp closes every connection dialed through the holder.
func (h *dialHolder) hangUp() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, c := range h.dialed {
		c.Close()
	}
	h.dialed = nil
}

// killSwitch arms a one-shot mid-session connection kill. The first
// write after arming passes (it lets the session's Hello out), the
// second fails and closes the transport — so the kill always lands
// inside an in-flight session, for every table size.
type killSwitch struct {
	armed  atomic.Bool
	writes atomic.Int32
}

func (k *killSwitch) arm() {
	k.writes.Store(0)
	k.armed.Store(true)
}

// wrap instruments a connection with the switch.
func (k *killSwitch) wrap(c net.Conn) net.Conn { return &killConn{Conn: c, k: k} }

type killConn struct {
	net.Conn
	k *killSwitch
}

func (c *killConn) Write(b []byte) (int, error) {
	if c.k.armed.Load() && c.k.writes.Add(1) >= 2 {
		c.k.armed.Store(false)
		c.Conn.Close()
		return 0, fmt.Errorf("mesh: injected connection kill")
	}
	return c.Conn.Write(b)
}
