// Package snapshot persists continuous.Controller epoch state so a
// restarted negotiation daemon recovers in O(epochs-since-snapshot)
// instead of replaying its whole lifetime from epoch 0 (ROADMAP:
// "Durable epoch state"). A snapshot captures the controller's complete
// mutable state — flow-stability records, credit ledger, applied
// assignments, nonce position, epoch index — as a versioned, checksummed
// byte format, and a Store writes snapshots atomically (temp file +
// rename) with a bounded retention ladder.
//
// The determinism contract (DESIGN.md §11): restoring a snapshot and
// replaying the tail epochs must be byte-identical to a full replay
// from epoch 0. Epochs are deterministic in (system, metric, seed), so
// the contract holds exactly when the snapshot captures *all* mutable
// state; the parity tests in internal/continuous pin it per metric and
// per snapshot interval.
//
// Format v1 is canonical: one state encodes to exactly one byte string
// (maps are serialized in sorted key order, integers little-endian,
// floats as IEEE-754 bits), and Decode accepts only canonical input —
// a successful Decode re-encodes to the identical bytes. The header is
//
//	magic "NXSNAP" | version uint16 | payload length uint32 | payload | crc32 (IEEE, all preceding bytes)
//
// The compat rule is append-only, like the wire Hello's (DESIGN.md §7):
// a future version only ever appends payload fields and bumps the
// version, and a v1 reader rejects any other version by name — it never
// misparses trailing fields it does not know about. Corruption —
// truncation, bit flips, lying lengths, checksum damage — is detected
// and rejected; a corrupt snapshot is skipped in favor of an older one
// or, when none is usable, full epoch-0 replay (the fallback ladder,
// Store.LoadLatest).
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Format constants.
const (
	// Version is the snapshot format version this package writes. The
	// append-only compat rule: future versions only append payload
	// fields; readers reject every version they do not implement.
	Version = 1
	// MaxSnapshotSize bounds the payload a reader will buffer; a header
	// advertising more is corrupt or hostile, not a real snapshot.
	MaxSnapshotSize = 64 << 20
)

// magic identifies a snapshot file.
var magic = [6]byte{'N', 'X', 'S', 'N', 'A', 'P'}

// headerSize is magic + version + payload length.
const headerSize = len(magic) + 2 + 4

// ErrCorrupt labels every integrity failure — truncation, bad magic,
// checksum mismatch, lying lengths, non-canonical ordering. Callers use
// it to distinguish damage (fall back to an older snapshot) from I/O
// errors.
var ErrCorrupt = errors.New("snapshot: corrupt")

// ErrVersion labels a structurally sound snapshot written by a format
// version this reader does not implement. Unlike ErrCorrupt the bytes
// are fine — they are just from the future (or a misconfigured past) —
// but the fallback is the same: skip it, use an older snapshot or
// replay from epoch 0.
var ErrVersion = errors.New("snapshot: unsupported version")

// State is a controller's complete mutable epoch state, flattened to
// pure data. Everything a continuous.Controller accumulates across
// epochs is here; everything derived from (system, metric) alone —
// routing tables, capacities, evaluators — is deliberately absent and
// rebuilt on restore.
type State struct {
	// Metric names the negotiation objective the state was captured
	// under. Restoring onto a controller configured for a different
	// metric is rejected: the states are incomparable.
	Metric string
	// Epoch is the number of epochs processed (the index the next
	// Epoch call reports).
	Epoch uint64
	// Registry is the flow table's stability side.
	Registry Registry
	// Ledger is the credit ledger.
	Ledger Ledger
	// Applied lists the installed interconnection per flow key, in
	// canonical (Dir, Src, Dst) order.
	Applied []Assignment
}

// Registry is the §6 flow-stability state of a controller's flow table:
// the policy (size threshold, stable epochs, idle time-out), the
// ingress-nonce position, and one record per tracked flow in canonical
// signature order. A record's key is the flow's signature (source and
// destination prefix, ingress identifier), which the controller derives
// from the flow's direction and PoPs.
type Registry struct {
	SizeThreshold float64
	StableTicks   int64
	IdleTimeout   int64
	Nonce         uint64
	Flows         []Flow
}

// Flow is one tracked flow's full lifecycle state.
type Flow struct {
	SrcAddr     uint32
	SrcBits     uint8
	DstAddr     uint32
	DstBits     uint8
	Ingress     uint64
	Size        float64
	LastSeen    int64
	AboveSince  int64
	EverStable  bool
	Negotiable  bool
	AnnouncedAt int64
}

// Ledger is the persisted credits.Ledger.
type Ledger struct {
	Balance   int64
	MaxCredit int64
	History   []LedgerEntry
}

// LedgerEntry is one settled session.
type LedgerEntry struct {
	Session      int64
	GainA, GainB int64
	BalanceAfter int64
}

// Assignment is one applied flow-to-interconnection choice.
type Assignment struct {
	Dir      uint8 // 0 = A->B, 1 = B->A
	Src, Dst int64
	Alt      int64
}

// flowLess orders flows by full signature.
func flowLess(a, b Flow) bool {
	if a.SrcAddr != b.SrcAddr {
		return a.SrcAddr < b.SrcAddr
	}
	if a.SrcBits != b.SrcBits {
		return a.SrcBits < b.SrcBits
	}
	if a.DstAddr != b.DstAddr {
		return a.DstAddr < b.DstAddr
	}
	if a.DstBits != b.DstBits {
		return a.DstBits < b.DstBits
	}
	return a.Ingress < b.Ingress
}

// assignLess orders assignments by (Dir, Src, Dst).
func assignLess(a, b Assignment) bool {
	if a.Dir != b.Dir {
		return a.Dir < b.Dir
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Dst < b.Dst
}

// Per-record encoded sizes, used both by the encoder and by the
// decoder's lying-length guard (a claimed count must fit the bytes
// actually present before anything is allocated).
const (
	flowSize   = 4 + 1 + 4 + 1 + 8 + 8 + 8 + 8 + 1 + 1 + 8
	ledgerSize = 4 * 8
	assignSize = 1 + 8 + 8 + 8
)

// Encode serializes the state as canonical format-v1 bytes: the same
// state always yields the same byte string (the golden-file tests pin
// it), and Decode(Encode(st)) round-trips exactly. Encode validates the
// canonical ordering invariants instead of sorting silently — a caller
// handing over out-of-order state has a bug worth surfacing.
func Encode(st *State) ([]byte, error) {
	for i := 1; i < len(st.Registry.Flows); i++ {
		if !flowLess(st.Registry.Flows[i-1], st.Registry.Flows[i]) {
			return nil, fmt.Errorf("snapshot: flows not in canonical signature order at index %d", i)
		}
	}
	for i := 1; i < len(st.Applied); i++ {
		if !assignLess(st.Applied[i-1], st.Applied[i]) {
			return nil, fmt.Errorf("snapshot: applied assignments not in canonical key order at index %d", i)
		}
	}
	for i := 1; i < len(st.Ledger.History); i++ {
		if st.Ledger.History[i].Session < st.Ledger.History[i-1].Session {
			return nil, fmt.Errorf("snapshot: ledger history sessions decrease at index %d", i)
		}
	}
	if len(st.Metric) > math.MaxUint16 {
		return nil, fmt.Errorf("snapshot: metric name %d bytes long", len(st.Metric))
	}

	payload := make([]byte, 0, 64+len(st.Metric)+
		len(st.Registry.Flows)*flowSize+
		len(st.Ledger.History)*ledgerSize+
		len(st.Applied)*assignSize)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(st.Metric)))
	payload = append(payload, st.Metric...)
	payload = binary.LittleEndian.AppendUint64(payload, st.Epoch)

	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(st.Registry.SizeThreshold))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(st.Registry.StableTicks))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(st.Registry.IdleTimeout))
	payload = binary.LittleEndian.AppendUint64(payload, st.Registry.Nonce)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(st.Registry.Flows)))
	for _, f := range st.Registry.Flows {
		payload = binary.LittleEndian.AppendUint32(payload, f.SrcAddr)
		payload = append(payload, f.SrcBits)
		payload = binary.LittleEndian.AppendUint32(payload, f.DstAddr)
		payload = append(payload, f.DstBits)
		payload = binary.LittleEndian.AppendUint64(payload, f.Ingress)
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(f.Size))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(f.LastSeen))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(f.AboveSince))
		payload = append(payload, encodeBool(f.EverStable), encodeBool(f.Negotiable))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(f.AnnouncedAt))
	}

	payload = binary.LittleEndian.AppendUint64(payload, uint64(st.Ledger.Balance))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(st.Ledger.MaxCredit))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(st.Ledger.History)))
	for _, e := range st.Ledger.History {
		payload = binary.LittleEndian.AppendUint64(payload, uint64(e.Session))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(e.GainA))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(e.GainB))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(e.BalanceAfter))
	}

	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(st.Applied)))
	for _, a := range st.Applied {
		payload = append(payload, a.Dir)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(a.Src))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(a.Dst))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(a.Alt))
	}

	if len(payload) > MaxSnapshotSize {
		return nil, fmt.Errorf("snapshot: payload %d bytes exceeds MaxSnapshotSize", len(payload))
	}
	out := make([]byte, 0, headerSize+len(payload)+4)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return out, nil
}

func encodeBool(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// decoder is a bounds-checked cursor over the payload.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if len(d.buf)-d.off < n {
		d.err = fmt.Errorf("%w: payload truncated at offset %d (need %d bytes)", ErrCorrupt, d.off, n)
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) boolByte(field string) bool {
	b := d.u8()
	if d.err == nil && b > 1 {
		d.err = fmt.Errorf("%w: %s byte %d is not a bool", ErrCorrupt, field, b)
	}
	return b == 1
}

// count reads a record count and verifies the claimed records fit the
// remaining payload — the lying-length guard: nothing is allocated on
// the say-so of a corrupt header.
func (d *decoder) count(recordSize int, what string) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if int64(n)*int64(recordSize) > int64(len(d.buf)-d.off) {
		d.err = fmt.Errorf("%w: %s count %d exceeds remaining payload", ErrCorrupt, what, n)
		return 0
	}
	return int(n)
}

// Decode parses format-v1 bytes back into a State. It is strict: bad
// magic, a version this reader does not implement, a length that
// disagrees with the data, a checksum mismatch, out-of-range field
// values, non-canonical ordering, or trailing bytes are all rejected —
// corrupt input never loads silently and never panics (the fuzz test's
// contract). On success, Encode(state) reproduces the input bytes
// exactly.
func Decode(data []byte) (*State, error) {
	if len(data) < headerSize+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any snapshot", ErrCorrupt, len(data))
	}
	if [6]byte(data[:6]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:6])
	}
	version := binary.LittleEndian.Uint16(data[6:])
	if version != Version {
		// The append-only rule makes this reject, not misparse: a v2
		// snapshot is a v1 payload plus trailing fields, and trusting the
		// v1 prefix would silently drop state. Reject by name instead.
		return nil, fmt.Errorf("%w %d (this reader implements %d)", ErrVersion, version, Version)
	}
	plen := binary.LittleEndian.Uint32(data[8:])
	if plen > MaxSnapshotSize {
		return nil, fmt.Errorf("%w: payload length %d exceeds MaxSnapshotSize", ErrCorrupt, plen)
	}
	if int(plen) != len(data)-headerSize-4 {
		return nil, fmt.Errorf("%w: payload length %d disagrees with %d data bytes", ErrCorrupt, plen, len(data)-headerSize-4)
	}
	body := data[:headerSize+int(plen)]
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: checksum %08x, computed %08x", ErrCorrupt, sum, got)
	}

	d := &decoder{buf: body[headerSize:]}
	st := &State{}
	mlen := int(d.u16())
	if d.need(mlen) {
		st.Metric = string(d.buf[d.off : d.off+mlen])
		d.off += mlen
	}
	st.Epoch = d.u64()
	if d.err == nil && st.Epoch > math.MaxInt64/2 {
		d.err = fmt.Errorf("%w: epoch %d out of range", ErrCorrupt, st.Epoch)
	}

	st.Registry.SizeThreshold = d.f64()
	st.Registry.StableTicks = d.i64()
	st.Registry.IdleTimeout = d.i64()
	st.Registry.Nonce = d.u64()
	if n := d.count(flowSize, "flow"); d.err == nil && n > 0 {
		st.Registry.Flows = make([]Flow, n)
		for i := range st.Registry.Flows {
			f := &st.Registry.Flows[i]
			f.SrcAddr = d.u32()
			f.SrcBits = d.u8()
			f.DstAddr = d.u32()
			f.DstBits = d.u8()
			f.Ingress = d.u64()
			f.Size = d.f64()
			f.LastSeen = d.i64()
			f.AboveSince = d.i64()
			f.EverStable = d.boolByte("flow everStable")
			f.Negotiable = d.boolByte("flow negotiable")
			f.AnnouncedAt = d.i64()
			if d.err == nil && (f.SrcBits > 32 || f.DstBits > 32) {
				d.err = fmt.Errorf("%w: flow %d has prefix bits beyond 32", ErrCorrupt, i)
			}
			if d.err == nil && i > 0 && !flowLess(st.Registry.Flows[i-1], *f) {
				d.err = fmt.Errorf("%w: flows out of canonical order at index %d", ErrCorrupt, i)
			}
			if d.err != nil {
				return nil, d.err
			}
		}
	}

	st.Ledger.Balance = d.i64()
	st.Ledger.MaxCredit = d.i64()
	if n := d.count(ledgerSize, "ledger entry"); d.err == nil && n > 0 {
		st.Ledger.History = make([]LedgerEntry, n)
		for i := range st.Ledger.History {
			e := &st.Ledger.History[i]
			e.Session = d.i64()
			e.GainA = d.i64()
			e.GainB = d.i64()
			e.BalanceAfter = d.i64()
			if d.err == nil && i > 0 && e.Session < st.Ledger.History[i-1].Session {
				d.err = fmt.Errorf("%w: ledger history sessions decrease at index %d", ErrCorrupt, i)
			}
			if d.err != nil {
				return nil, d.err
			}
		}
	}

	if n := d.count(assignSize, "assignment"); d.err == nil && n > 0 {
		st.Applied = make([]Assignment, n)
		for i := range st.Applied {
			a := &st.Applied[i]
			a.Dir = d.u8()
			a.Src = d.i64()
			a.Dst = d.i64()
			a.Alt = d.i64()
			if d.err == nil && a.Dir > 1 {
				d.err = fmt.Errorf("%w: assignment %d direction %d", ErrCorrupt, i, a.Dir)
			}
			if d.err == nil && i > 0 && !assignLess(st.Applied[i-1], *a) {
				d.err = fmt.Errorf("%w: assignments out of canonical order at index %d", ErrCorrupt, i)
			}
			if d.err != nil {
				return nil, d.err
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return st, nil
}
