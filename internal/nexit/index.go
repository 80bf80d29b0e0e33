package nexit

// proposalIndex is the one structure proposal selection and the stop
// check read. Whether an (item, alternative) entry may be proposed is a
// function of its two classes, of whether it is the item's default
// alternative, and of the current cumulative gains (see gate) — so
// entries are bucketed into cells keyed by (classA, classB, is-default),
// at most (2P+1)² × 2 of them, and a whole cell is admitted or rejected
// at once. Inside a cell the combined sum and both classes are constant,
// so what is left of the selection rule is its tie-break: items in
// descending order of their best combined sum, then ascending ID, then
// ascending alternative. Cells hold their entries in exactly that order
// (a counting sort on the best sum, then one CSR fill), which makes "the
// first live entry of the first admitted cell" the proposal a direct scan
// over all entries would choose.
//
// Two operations maintain it. build recomputes everything from the
// preference tables, the veto set and the items on the table, after a
// preference refresh or a veto (a veto moves an item's best sum and with
// it the item's place in every cell). take marks an item as off the
// table, planned or committed; its entries die lazily — head cursors step
// over them. Nothing ever comes back between two builds: the planned
// items a counterpart did not accept return to the table only behind the
// veto that cut the plan short, and that veto rebuilds. The same two
// operations keep the stop check's histograms: the classes each item on
// the table has at its selected (best-sum) alternative, and the best
// sums themselves.
type proposalIndex struct {
	width int // 2P+1: classes per side

	// Per item: the selected alternative (first to attain the best
	// combined sum among non-vetoed ones; the default when all are
	// vetoed) and that sum (noSum when all are vetoed).
	bestAlt, bestSum []int32

	// CSR cells: ents[start[c]:start[c+1]] are cell c's entries in
	// tie-break order and head[c] is the first position not known dead.
	start, head []int32
	ents        []entry

	// order lists every (own, other) class pair in the order a proposer
	// prefers them; walk[side] is that order as (classA, classB) for
	// proposer side, cut down to the pairs that hold entries, and
	// from[side] is the first of them not yet found exhausted.
	order []classes
	walk  [2][]classes
	from  [2]int

	// histA/histB count items on the table by class at bestAlt (index
	// class+P), histSum by bestSum (index sum+2P).
	histA, histB, histSum []int32

	byRank, sumOff []int32 // build's counting-sort scratch
}

type entry struct{ item, alt int32 }

type classes struct{ a, b int32 }

const noSum = -1 << 30

// newIndex sizes the index once for a negotiation; every build reuses it.
func (n *negotiation) newIndex() {
	p, size := n.cfg.PrefBound, len(n.items)*n.numAlts
	x := &n.idx
	x.width = 2*p + 1
	x.bestAlt, x.bestSum = make([]int32, len(n.items)), make([]int32, len(n.items))
	x.start, x.head = make([]int32, 2*x.width*x.width+1), make([]int32, 2*x.width*x.width)
	x.ents = make([]entry, size)
	x.histA, x.histB = make([]int32, x.width), make([]int32, x.width)
	x.histSum, x.sumOff = make([]int32, 4*p+1), make([]int32, 4*p+1)
	x.byRank = make([]int32, len(n.items))
	// The proposer's preference order over cells: max-sum walks combined
	// sums downwards and, within a sum, its own class downwards;
	// best-local walks its own class downwards, then the other side's.
	x.order = make([]classes, 0, x.width*x.width)
	if n.cfg.Propose == BestLocal {
		for own := p; own >= -p; own-- {
			for other := p; other >= -p; other-- {
				x.order = append(x.order, classes{int32(own), int32(other)})
			}
		}
	} else {
		for s := 2 * p; s >= -2*p; s-- {
			for own := min(p, s+p); own >= max(-p, s-p); own-- {
				x.order = append(x.order, classes{int32(own), int32(s - own)})
			}
		}
	}
	x.walk[SideA], x.walk[SideB] = make([]classes, 0, len(x.order)), make([]classes, 0, len(x.order))
}

// cell returns the cell of classes (a, b): the off-default one, with the
// default-alternative one right after it.
func (n *negotiation) cell(a, b int) int {
	return 2 * ((a+n.cfg.PrefBound)*n.idx.width + b + n.cfg.PrefBound)
}

// cellOf returns the cell of flat entry e (item*numAlts + alt).
func (n *negotiation) cellOf(e int, isDefault bool) int {
	c := n.cell(n.prefsA[e], n.prefsB[e])
	if isDefault {
		c++
	}
	return c
}

// build indexes every non-vetoed alternative of every item on the table.
func (n *negotiation) build() {
	x, na := &n.idx, n.numAlts
	clear(x.histA)
	clear(x.histB)
	clear(x.histSum)
	clear(x.start)
	for id, live := range n.remaining {
		if !live {
			continue
		}
		base, def := id*na, n.defaults[id]
		best, sum := def, noSum
		for k := 0; k < na; k++ {
			if n.vetoed[base+k] {
				continue
			}
			if s := n.prefsA[base+k] + n.prefsB[base+k]; s > sum {
				best, sum = k, s
			}
			x.start[n.cellOf(base+k, k == def)+1]++
		}
		x.bestAlt[id], x.bestSum[id] = int32(best), int32(sum)
		n.count(id, 1)
	}
	// Items by (best sum descending, ID ascending): histSum already holds
	// the counting sort's bucket sizes.
	ranked := int32(0)
	for s := len(x.histSum) - 1; s >= 0; s-- {
		x.sumOff[s] = ranked
		ranked += x.histSum[s]
	}
	for id, live := range n.remaining {
		if live && x.bestSum[id] != noSum {
			s := int(x.bestSum[id]) + 2*n.cfg.PrefBound
			x.byRank[x.sumOff[s]] = int32(id)
			x.sumOff[s]++
		}
	}
	// CSR fill in that order; head doubles as the fill cursor.
	for c := 1; c < len(x.start); c++ {
		x.start[c] += x.start[c-1]
	}
	copy(x.head, x.start)
	for _, id := range x.byRank[:ranked] {
		base, def := int(id)*na, n.defaults[id]
		for k := 0; k < na; k++ {
			if n.vetoed[base+k] {
				continue
			}
			c := n.cellOf(base+k, k == def)
			x.ents[x.head[c]] = entry{id, int32(k)}
			x.head[c]++
		}
	}
	copy(x.head, x.start)
	holds := func(a, b int32) bool {
		c := n.cell(int(a), int(b))
		return x.start[c+2] > x.start[c]
	}
	x.walk[SideA], x.walk[SideB], x.from = x.walk[SideA][:0], x.walk[SideB][:0], [2]int{}
	for _, c := range x.order {
		if holds(c.a, c.b) {
			x.walk[SideA] = append(x.walk[SideA], c)
		}
		if holds(c.b, c.a) {
			x.walk[SideB] = append(x.walk[SideB], classes{c.b, c.a})
		}
	}
}

// count adds item id to (d = 1) or removes it from (d = -1) the
// histograms.
func (n *negotiation) count(id int, d int32) {
	x, p := &n.idx, n.cfg.PrefBound
	e := id*n.numAlts + int(x.bestAlt[id])
	x.histA[n.prefsA[e]+p] += d
	x.histB[n.prefsB[e]+p] += d
	if x.bestSum[id] != noSum {
		x.histSum[int(x.bestSum[id])+2*p] += d
	}
}

// take removes item id from the table: planned or committed.
func (n *negotiation) take(id int) {
	n.remaining[id] = false
	n.numRemaining--
	n.count(id, -1)
}

// first returns cell c's first live entry.
func (n *negotiation) first(c int) (entry, bool) {
	x := &n.idx
	h, end := x.head[c], x.start[c+1]
	for h < end && !n.remaining[x.ents[h].item] {
		h++
	}
	x.head[c] = h
	if h == end {
		return entry{}, false
	}
	return x.ents[h], true
}

// before reports whether entry e precedes f in the tie-break order.
func (n *negotiation) before(e, f entry) bool {
	if se, sf := n.idx.bestSum[e.item], n.idx.bestSum[f.item]; se != sf {
		return se > sf
	}
	if e.item != f.item {
		return e.item < f.item
	}
	return e.alt < f.alt
}

// top returns the highest index of hist with a positive count, -1 if
// none.
func top(hist []int32) int {
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i] > 0 {
			return i
		}
	}
	return -1
}
