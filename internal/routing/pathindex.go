package routing

import (
	"encoding/binary"
)

// PathIndex is a CSR-style (compressed sparse row) index of the link
// paths between every PoP of one table and a fixed endpoint set — in
// practice the ISP's own PoPs of the pair's interconnections. The nexit
// evaluators and the optimal-routing LP only ever need paths with one
// end pinned to an interconnection PoP, so the full path structure for a
// negotiation is an (endpoints × 2n) family of rows: for endpoint k,
//
//	To(k, src)   — links on the path src → endpoints[k]
//	From(k, dst) — links on the path endpoints[k] → dst
//
// All rows share one flat links array with an offsets table, making each
// lookup an inlined zero-allocation subslice, links in path order. Rows
// for unreachable pairs (and for src == endpoint) are empty. Every
// repeated path read loops over these rows. Build cost is one
// parent-chain walk per row, paid once per (table, endpoint set) and
// memoized on the Table (see PathIndexFor), then amortized across every
// Prefs/Commit/Revert of every session sharing the table.
type PathIndex struct {
	n     int
	links []int32 // concatenated per-row link paths
	off   []int32 // row r occupies links[off[r]:off[r+1]]; len = numRows+1
}

// row maps (endpoint k, direction, pop) to the CSR row id. Direction 0
// is "to the endpoint" (pop is the source), 1 is "from the endpoint"
// (pop is the destination).
func (ix *PathIndex) row(k, dir, pop int) int {
	return k*2*ix.n + dir*ix.n + pop
}

// To returns the links (indices into ISP.Links, in path order) on the
// shortest path from src to endpoints[k].
func (ix *PathIndex) To(k, src int) []int32 {
	r := ix.row(k, 0, src)
	return ix.links[ix.off[r]:ix.off[r+1]]
}

// From returns the links on the shortest path from endpoints[k] to dst.
func (ix *PathIndex) From(k, dst int) []int32 {
	r := ix.row(k, 1, dst)
	return ix.links[ix.off[r]:ix.off[r+1]]
}

// buildPathIndex constructs the index for the given endpoint set.
func (t *Table) buildPathIndex(endpoints []int) *PathIndex {
	n := t.n
	ix := &PathIndex{
		n:   n,
		off: make([]int32, len(endpoints)*2*n+1),
	}
	// Pass 1: count hops per row into off[r+1].
	for k, ep := range endpoints {
		parentFromEp := t.parent[ep*n:]
		for p := 0; p < n; p++ {
			// To-row: path p → ep uses p's parent tree.
			if p != ep && t.Reachable(p, ep) {
				parent := t.parent[p*n:]
				hops := 0
				for v := ep; v != p; v = int(parent[v]) {
					hops++
				}
				ix.off[ix.row(k, 0, p)+1] = int32(hops)
			}
			// From-row: path ep → p uses ep's parent tree.
			if p != ep && t.Reachable(ep, p) {
				hops := 0
				for v := p; v != ep; v = int(parentFromEp[v]) {
					hops++
				}
				ix.off[ix.row(k, 1, p)+1] = int32(hops)
			}
		}
	}
	for r := 1; r < len(ix.off); r++ {
		ix.off[r] += ix.off[r-1]
	}
	ix.links = make([]int32, ix.off[len(ix.off)-1])
	// Pass 2: fill each row by walking the parent chain destination →
	// source, writing backwards so the stored row is in forward path
	// order.
	for k, ep := range endpoints {
		parentFromEp := t.parent[ep*n:]
		plinkFromEp := t.plink[ep*n:]
		for p := 0; p < n; p++ {
			if p != ep && t.Reachable(p, ep) {
				parent := t.parent[p*n:]
				plink := t.plink[p*n:]
				r := ix.row(k, 0, p)
				i := ix.off[r+1]
				for v := ep; v != p; v = int(parent[v]) {
					i--
					ix.links[i] = plink[v]
				}
			}
			if p != ep && t.Reachable(ep, p) {
				r := ix.row(k, 1, p)
				i := ix.off[r+1]
				for v := p; v != ep; v = int(parentFromEp[v]) {
					i--
					ix.links[i] = plinkFromEp[v]
				}
			}
		}
	}
	return ix
}

// PathIndexFor returns the path index for the given endpoint set,
// building it on first use and memoizing it on the table. Tables are
// shared across sessions and worker goroutines, so both negotiation
// sides and the optimal-routing layer resolve to the same index for the
// same interconnection list; concurrent first calls may race to build
// but agree on one winner (the build is deterministic, so either copy
// is identical).
func (t *Table) PathIndexFor(endpoints []int) *PathIndex {
	key := make([]byte, 4*len(endpoints))
	for i, ep := range endpoints {
		binary.LittleEndian.PutUint32(key[4*i:], uint32(ep))
	}
	if v, ok := t.pathIndexes.Load(string(key)); ok {
		return v.(*PathIndex)
	}
	ix := t.buildPathIndex(endpoints)
	actual, _ := t.pathIndexes.LoadOrStore(string(key), ix)
	return actual.(*PathIndex)
}
