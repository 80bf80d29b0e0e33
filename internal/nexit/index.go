package nexit

import "math/bits"

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
// Which cell is first is read from occupancy bitsets. Each proposer
// ranks the class pairs in rows of bits, both in its order of
// preference (see rank): a row is a combined sum s and a bit the
// proposer's own class o (the other's is s − o). Per proposer and row
// there is one bitset for off-default cells and one for default cells,
// with a bit set while its cell holds a live entry. The gate is one
// interval of bits per row: a default cell is admitted iff
// o ∈ [floorOwn, s − floorOther]. An off-default cell needs the same, and
// also s > 0, or else s = 0 with o ∈ [evenOwn, −evenOther]; so s < 0
// admits off-default cells nowhere, and no cell below
// s = floorOwn + floorOther at all.
//
// So the first admitted live cell of a row is the lowest set bit of its
// occupancy inside the interval, and the first row that has one holds
// the proposal. When its off-default and default cells are the same
// class pair, the tie-break order (before) decides between their first
// live entries. A recovery pick (floor 1 on the deficit side) is just a
// narrower interval.
//
// Two operations maintain it. build recomputes everything from the
// preference tables, the veto set and the items on the table, after a
// preference refresh or a veto (a veto moves an item's best sum and with
// it the item's place in every cell). take marks an item as off the
// table, planned or committed: it decrements the live count of each of
// the item's cells and clears the bits of those it empties, while the
// entries themselves die lazily — head cursors step over them. Nothing
// ever comes back between two builds: the planned items a counterpart
// did not accept return to the table only behind the veto that cut the
// plan short, and that veto rebuilds. The same two operations keep the
// stop check's histograms: the classes each item on the table has at its
// selected (best-sum) alternative.
type proposalIndex struct {
	width int // 2P+1: classes per side

	// Per item: the selected alternative (first to attain the best
	// combined sum among non-vetoed ones; the default when all are
	// vetoed) and that sum (noSum when all are vetoed).
	bestAlt, bestSum []int32

	// CSR cells: ents[start[c]:start[c+1]] are cell c's entries in
	// tie-break order, head[c] is the first position not known dead and
	// live[c] the number of entries whose item is on the table.
	start, head, live []int32
	ents              []entry

	// occ holds the occupancy bitsets: for each proposer side, rows rows,
	// each an off-default and a default bitset of words words (see
	// occRow). firstRow[side] is the first row not yet found empty.
	rows, words int
	occ         []uint64
	firstRow    [2]int

	// histA/histB count items on the table by class at bestAlt (index
	// class+P).
	histA, histB []int32

	byRank, sumOff []int32 // build's counting sort by bestSum (index sum+2P)
}

type entry struct{ item, alt int32 }

const noSum = -1 << 30

// newIndex sizes the index once for a negotiation, reusing the arrays a
// reused state brings; every build rewrites or clears all of them.
func (n *negotiation) newIndex() {
	p, size := n.cfg.PrefBound, len(n.items)*n.numAlts
	x := &n.idx
	x.width = 2*p + 1
	cells := 2 * x.width * x.width
	x.bestAlt, x.bestSum = resize(x.bestAlt, len(n.items)), resize(x.bestSum, len(n.items))
	x.start, x.head, x.live = resize(x.start, cells+1), resize(x.head, cells), resize(x.live, cells)
	x.start[0] = 0 // build writes only start[1:]
	x.ents = resize(x.ents, size)
	x.histA, x.histB = resize(x.histA, x.width), resize(x.histB, x.width)
	x.sumOff, x.byRank = resize(x.sumOff, 4*p+1), resize(x.byRank, len(n.items))
	x.rows, x.words = 4*p+1, (x.width+63)/64
	x.occ = resize(x.occ, 2*2*x.rows*x.words)
}

// cell returns the cell of classes (a, b): the off-default one, with the
// default-alternative one right after it.
func (n *negotiation) cell(a, b int) int {
	return 2 * ((a+n.cfg.PrefBound)*n.idx.width + b + n.cfg.PrefBound)
}

// cellOf returns the cell of flat entry e (item*numAlts + alt).
func (n *negotiation) cellOf(e int, isDefault bool) int {
	c := n.cell(int(n.prefsA[e]), int(n.prefsB[e]))
	if isDefault {
		c++
	}
	return c
}

// rank places the class pair (a, b) in proposer side's order of
// preference, as a row and a bit within it; lower is preferred: by
// combined sum, then own class.
func (n *negotiation) rank(side Side, a, b int) (row, bit int) {
	p, own := n.cfg.PrefBound, a
	if side == SideB {
		own = b
	}
	return 2*p - a - b, p - own
}

// classesAt inverts rank.
func (n *negotiation) classesAt(side Side, row, bit int) (a, b int) {
	p := n.cfg.PrefBound
	own, other := p-bit, p-row+bit
	if side == SideB {
		return other, own
	}
	return own, other
}

// occRow returns proposer side's occupancy row r: the off-default
// cells' bitset, then the default cells'.
func (x *proposalIndex) occRow(side Side, r int) (off, def []uint64) {
	i := (int(side)*x.rows + r) * 2 * x.words
	return x.occ[i : i+x.words], x.occ[i+x.words : i+2*x.words]
}

// mark sets (on) or clears cell c's bit in both proposers' rows.
func (n *negotiation) mark(c int, on bool) {
	x, p := &n.idx, n.cfg.PrefBound
	a, b := c/2/x.width-p, c/2%x.width-p
	for _, side := range [2]Side{SideA, SideB} {
		r, bit := n.rank(side, a, b)
		row, def := x.occRow(side, r)
		if c%2 == 1 {
			row = def
		}
		if on {
			row[bit/64] |= 1 << (bit % 64)
		} else {
			row[bit/64] &^= 1 << (bit % 64)
		}
	}
}

// build indexes every non-vetoed alternative of every item on the table.
func (n *negotiation) build() {
	x, na := &n.idx, n.numAlts
	clear(x.histA)
	clear(x.histB)
	clear(x.sumOff)
	clear(x.live)
	clear(x.occ)
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
			if s := int(n.prefsA[base+k]) + int(n.prefsB[base+k]); s > sum {
				best, sum = k, s
			}
			c := n.cellOf(base+k, k == def)
			if x.live[c]++; x.live[c] == 1 {
				n.mark(c, true)
			}
		}
		x.bestAlt[id], x.bestSum[id] = int32(best), int32(sum)
		n.count(id, 1)
		if sum != noSum {
			x.sumOff[sum+2*n.cfg.PrefBound]++
		}
	}
	// Items by (best sum descending, ID ascending): a counting sort, whose
	// bucket sizes sumOff now holds.
	ranked := int32(0)
	for s := len(x.sumOff) - 1; s >= 0; s-- {
		size := x.sumOff[s]
		x.sumOff[s] = ranked
		ranked += size
	}
	for id, live := range n.remaining {
		if live && x.bestSum[id] != noSum {
			s := int(x.bestSum[id]) + 2*n.cfg.PrefBound
			x.byRank[x.sumOff[s]] = int32(id)
			x.sumOff[s]++
		}
	}
	// CSR fill in that order; head doubles as the fill cursor.
	for c, l := range x.live {
		x.start[c+1] = x.start[c] + l
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
	x.firstRow = [2]int{}
}

// count adds item id to (d = 1) or removes it from (d = -1) the
// histograms.
func (n *negotiation) count(id int, d int32) {
	x, p := &n.idx, n.cfg.PrefBound
	e := id*n.numAlts + int(x.bestAlt[id])
	x.histA[int(n.prefsA[e])+p] += d
	x.histB[int(n.prefsB[e])+p] += d
}

// take removes item id from the table: planned or committed.
func (n *negotiation) take(id int) {
	n.remaining[id] = false
	n.numRemaining--
	n.count(id, -1)
	x, base, def := &n.idx, id*n.numAlts, n.defaults[id]
	for k := 0; k < n.numAlts; k++ {
		if n.vetoed[base+k] {
			continue
		}
		c := n.cellOf(base+k, k == def)
		if x.live[c]--; x.live[c] == 0 {
			n.mark(c, false)
		}
	}
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

// lowest returns the lowest set bit of row within [lo, hi], -1 if none.
func lowest(row []uint64, lo, hi int) int {
	lo, hi = max(lo, 0), min(hi, 64*len(row)-1)
	if lo > hi {
		return -1
	}
	last, mask := uint(hi)/64, ^uint64(0)<<(uint(lo)%64)
	for w := uint(lo) / 64; w <= last; w++ {
		word := row[w] & mask
		if w == last {
			word &= ^uint64(0) >> (63 - uint(hi)%64)
		}
		if word != 0 {
			return int(64*w) + bits.TrailingZeros64(word)
		}
		mask = ^uint64(0)
	}
	return -1
}

// empty reports whether no bit of row is set.
func empty(row []uint64) bool {
	for _, w := range row {
		if w != 0 {
			return false
		}
	}
	return true
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
