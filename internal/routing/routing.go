// Package routing computes intra-ISP routing state: shortest paths over
// link weights (OSPF-style), path extraction, and per-link load
// accumulation.
//
// The paper assumes each ISP routes internally along its IGP shortest
// paths; a flow's path through the two-ISP system is the concatenation of
// the upstream's internal path to the chosen interconnection, the
// interconnection link, and the downstream's internal path from the
// interconnection to the destination. This package supplies the internal
// halves; interconnection choice is made by the negotiation, baseline, or
// optimal routing layers.
package routing

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/topology"
)

// Table holds all-pairs shortest-path state for one ISP. Shortest paths
// minimize the sum of link weights; ties are broken deterministically
// (prefer the path whose previous hop has the smaller PoP ID) so the
// entire simulator is reproducible.
//
// All four per-pair matrices live in single contiguous n*n backing
// arrays (row src at [src*n : (src+1)*n]) rather than per-source row
// allocations: the evaluator hot loops walk rows for many (src, dst)
// pairs in sequence, and one flat allocation keeps them on adjacent
// cache lines and off the allocator entirely.
type Table struct {
	ISP *topology.ISP

	n      int
	dist   []float64 // dist[src*n+dst]: sum of link weights
	length []float64 // length[src*n+dst]: geographic km along the chosen path
	parent []int32   // parent[src*n+dst]: previous hop on the path from src, -1 at src/unreachable
	plink  []int32   // plink[src*n+dst]: link index used to reach dst from parent

	// pathIndexes memoizes PathIndexFor results keyed by the encoded
	// endpoint list. Tables are shared across pairs and worker
	// goroutines (pairsim.TableCache), so the memo must be safe for
	// concurrent first use.
	pathIndexes sync.Map // string -> *PathIndex
}

// New builds the routing table by running Dijkstra from every PoP.
func New(isp *topology.ISP) *Table {
	n := len(isp.PoPs)
	t := &Table{
		ISP:    isp,
		n:      n,
		dist:   make([]float64, n*n),
		length: make([]float64, n*n),
		parent: make([]int32, n*n),
		plink:  make([]int32, n*n),
	}
	adj := isp.Adjacency()
	var s dijkstraScratch
	s.init(n)
	for src := 0; src < n; src++ {
		r := src * n
		dijkstra(isp, adj, src, t.dist[r:r+n], t.length[r:r+n], t.parent[r:r+n], t.plink[r:r+n], &s)
	}
	return t
}

// dijkstraScratch is the per-source working set, reused across the n
// single-source runs of one table build.
type dijkstraScratch struct {
	done []bool
	pq   popHeap
}

func (s *dijkstraScratch) init(n int) {
	s.done = make([]bool, n)
	s.pq = make(popHeap, 0, n)
}

// dijkstra computes single-source shortest paths with deterministic
// tie-breaking on (distance, previous-hop ID), writing into the caller's
// row views.
func dijkstra(isp *topology.ISP, adj [][]topology.Edge, src int, dist, length []float64, parent, plink []int32, s *dijkstraScratch) {
	n := len(isp.PoPs)
	done := s.done
	for i := 0; i < n; i++ {
		dist[i] = math.Inf(1)
		length[i] = 0
		parent[i] = -1
		plink[i] = -1
		done[i] = false
	}
	dist[src] = 0
	pq := s.pq[:0]
	pq.push(popItem{dist: 0, pop: int32(src)})
	for len(pq) > 0 {
		item := pq.pop()
		u := int(item.pop)
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range adj[u] {
			l := isp.Links[e.Link]
			nd := dist[u] + l.Weight
			v := e.To
			if done[v] {
				continue
			}
			better := nd < dist[v]
			// Deterministic tie-break: equal distance, smaller previous hop.
			if !better && nd == dist[v] && (parent[v] == -1 || int32(u) < parent[v]) {
				better = true
			}
			if better {
				dist[v] = nd
				length[v] = length[u] + l.LengthKm
				parent[v] = int32(u)
				plink[v] = int32(e.Link)
				pq.push(popItem{dist: nd, pop: int32(v)})
			}
		}
	}
	s.pq = pq[:0]
}

type popItem struct {
	dist float64
	pop  int32
}

// popHeap is a typed binary min-heap ordered by (dist, pop). The order
// is total, so the pop sequence — and with it every tie-break — is
// identical to the previous container/heap implementation, without the
// interface{} boxing per push/pop. Entries with equal keys are duplicate
// relaxations of the same PoP and are interchangeable (the done flag
// skips all but the first).
type popHeap []popItem

func itemLess(a, b popItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.pop < b.pop
}

func (h *popHeap) push(it popItem) {
	a := append(*h, it)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !itemLess(a[i], a[p]) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
	*h = a
}

func (h *popHeap) pop() popItem {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= len(a) {
			break
		}
		m := l
		if r := l + 1; r < len(a) && itemLess(a[r], a[l]) {
			m = r
		}
		if !itemLess(a[m], a[i]) {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	*h = a
	return top
}

// Dist returns the shortest-path weight between src and dst.
// It is +Inf if dst is unreachable.
func (t *Table) Dist(src, dst int) float64 { return t.dist[src*t.n+dst] }

// LengthKm returns the geographic length in kilometers of the chosen
// shortest (by weight) path between src and dst. This is the paper's
// distance metric for the portion of a flow inside one ISP (§5.1).
func (t *Table) LengthKm(src, dst int) float64 { return t.length[src*t.n+dst] }

// Reachable reports whether dst is reachable from src.
func (t *Table) Reachable(src, dst int) bool { return !math.IsInf(t.dist[src*t.n+dst], 1) }

// PathLinks returns the indices (into ISP.Links) of the links along the
// shortest path from src to dst, in order. It returns nil for src == dst
// or unreachable destinations.
func (t *Table) PathLinks(src, dst int) []int {
	if src == dst || !t.Reachable(src, dst) {
		return nil
	}
	parent := t.parent[src*t.n:]
	plink := t.plink[src*t.n:]
	hops := 0
	for v := dst; v != src; v = int(parent[v]) {
		hops++
	}
	out := make([]int, hops)
	i := hops
	for v := dst; v != src; v = int(parent[v]) {
		i--
		out[i] = int(plink[v])
	}
	return out
}

// AddLoad adds amount to every link on the shortest path from src to dst
// in the per-link load vector (indexed like ISP.Links). The parent chain
// is walked directly — no intermediate path slice is built.
func (t *Table) AddLoad(load []float64, src, dst int, amount float64) {
	if len(load) != len(t.ISP.Links) {
		panic(fmt.Sprintf("routing: load vector has %d entries for %d links", len(load), len(t.ISP.Links)))
	}
	if src == dst || !t.Reachable(src, dst) {
		return
	}
	parent := t.parent[src*t.n:]
	plink := t.plink[src*t.n:]
	for v := dst; v != src; v = int(parent[v]) {
		load[plink[v]] += amount
	}
}
