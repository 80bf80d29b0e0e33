package nexit

import (
	"math/bits"
	"slices"
)

// proposalIndex is the one structure proposal selection and the stop
// check read. Whether an (item, alternative) entry may be proposed is a
// function of its two classes, of whether it is the item's default
// alternative, and of the current cumulative gains (see gate) — so
// entries are bucketed into cells keyed by (classA, classB, is-default),
// at most (2P+1)² × 2 of them, and a whole cell is admitted or rejected
// at once. Only an off-default entry of negative combined sum is never
// admitted, whatever the gains; those stay out of the index. Inside a
// cell the combined sum and both classes are constant, so what is left
// of the selection rule is its tie-break: items in descending order of
// their best combined sum, then ascending ID, then ascending
// alternative. Cells hold their entries in exactly that order (a
// counting sort on the best sum, then one CSR fill), which makes "the
// first live entry of the first admitted cell" the proposal a direct
// scan over all entries would choose.
//
// Which cell is first is read from occupancy bitsets. Each proposer
// ranks the class pairs in rows of words, in its order of preference
// (see slot): row r holds the combined sum s = 2P − r, and in it bit
// 2(P + t) + d stands for the cell of the other side's class t (own class
// s − t) and kind d (1 for the default alternative), set while the cell
// holds a live entry. So a row's bits run from the proposer's highest own
// class down, and the two kinds of one class pair sit side by side. A
// cell is admitted iff t ≥ floorOther and s − t ≥ floorOwn: in bits, a
// lower bound that is the same in every row and an upper bound that
// falls by one bit pair per row. An off-default cell at s = 0 also needs
// t ∈ [evenOther, −evenOwn]. No row below s = floorOwn + floorOther
// admits anything.
//
// pick therefore computes the lower bound's word and mask once, and in
// each row that holds a live cell (liveRows) takes the lowest set bit
// from the lower bound on: the row holds the proposal iff that bit is
// inside the row's upper bound, one comparison. Only the row s = 0 masks
// its off-default bits as well. When the off-default and default cells
// of the class pair found both hold an entry, the tie-break order
// (before) decides between their first live entries. A recovery pick
// (floor 1 on the deficit side) is just a tighter pair of bounds.
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
// selected (best-sum) alternative, indexed or not.
type proposalIndex struct {
	width int // 2P+1: classes per side

	// Per item: the selected alternative (first to attain the best
	// combined sum among non-vetoed ones; the default when all are
	// vetoed) and that sum (noSum when all are vetoed).
	bestAlt, bestSum []int32

	// entCell holds each flat entry's cell, -1 for one vetoed or never
	// admitted: build computes it once, and its fill and take read it
	// back. Entries of items off the table hold what the last build left.
	entCell []int32

	// CSR cells: ents[start[c]:start[c+1]] are cell c's entries in
	// tie-break order, head[c] is the first position not known dead and
	// live[c] the number of entries whose item is on the table.
	start, head, live []int32
	ents              []entry

	// occ holds the occupancy rows: for each proposer side, rows rows of
	// words words (see slot). Bit r of liveRows is set while row r holds
	// a live cell; both sides' rows r hold the same cells.
	rows, words int
	occ         []uint64
	liveRows    []uint64

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
	x.entCell = resize(x.entCell, size)
	x.start, x.head, x.live = resize(x.start, cells+1), resize(x.head, cells), resize(x.live, cells)
	x.start[0] = 0 // build writes only start[1:]
	x.ents = resize(x.ents, size)
	x.histA, x.histB = resize(x.histA, x.width), resize(x.histB, x.width)
	x.sumOff, x.byRank = resize(x.sumOff, 4*p+1), resize(x.byRank, len(n.items))
	x.rows, x.words = 4*p+1, (2*x.width+63)/64
	x.occ = resize(x.occ, 2*x.rows*x.words)
	x.liveRows = resize(x.liveRows, (x.rows+63)/64)
}

// cell returns the cell of classes (a, b): the off-default one, with the
// default-alternative one right after it.
func (n *negotiation) cell(a, b int) int {
	return 2 * ((a+n.cfg.PrefBound)*n.idx.width + b + n.cfg.PrefBound)
}

// slot places the cell of classes (a, b) and kind d (1 for the default
// alternative) in proposer side's order of preference, as a row and a
// bit within it; lower is preferred: by combined sum, then own class.
func (n *negotiation) slot(side Side, a, b, d int) (row, bit int) {
	p, other := n.cfg.PrefBound, b
	if side == SideB {
		other = a
	}
	return 2*p - a - b, 2*(other+p) + d
}

// mark sets (on) or clears the bit of the cell of classes (a, b) and
// kind d in both proposers' rows, and keeps liveRows in step.
func (n *negotiation) mark(a, b, d int, on bool) {
	x := &n.idx
	r, _ := n.slot(SideA, a, b, d)
	for side := range 2 {
		_, bit := n.slot(Side(side), a, b, d)
		i := (side*x.rows+r)*x.words + bit/64
		if on {
			x.occ[i] |= 1 << (bit % 64)
		} else {
			x.occ[i] &^= 1 << (bit % 64)
		}
	}
	switch {
	case on:
		x.liveRows[r/64] |= 1 << (r % 64)
	case slices.Max(x.occ[r*x.words:][:x.words]) == 0:
		x.liveRows[r/64] &^= 1 << (r % 64)
	}
}

// nextRow returns the first row from r on that holds a live cell, or
// rows if none does.
func (x *proposalIndex) nextRow(r int) int {
	for w := r / 64; w < len(x.liveRows); w++ {
		if word := x.liveRows[w] & (^uint64(0) << (r % 64)); word != 0 {
			return 64*w + bits.TrailingZeros64(word)
		}
		r = 0
	}
	return x.rows
}

// build indexes every alternative a gate can admit (neither vetoed nor
// off the default at a negative sum) of every item on the table.
func (n *negotiation) build() {
	x, na, p := &n.idx, n.numAlts, n.cfg.PrefBound
	clear(x.histA)
	clear(x.histB)
	clear(x.sumOff)
	clear(x.live)
	clear(x.occ)
	clear(x.liveRows)
	// cell's formula, 2((a+P)·width + b + P) + d, with the P terms folded
	// into origin. Honest tables put nearly every default alternative in
	// the one default cell of classes (0, 0); its count stays in a
	// register.
	w := x.width
	origin := 2 * (p*w + p)
	zero, zeros := int32(origin+1), int32(0)
	for id, live := range n.remaining {
		if !live {
			continue
		}
		base, def := id*na, n.defaults[id]
		prefsA, prefsB, vetoed := n.prefsA[base:base+na], n.prefsB[base:base+na], n.vetoed[base:base+na]
		cells := x.entCell[base : base+na]
		best, sum := def, noSum
		for k := range cells {
			if vetoed[k] {
				cells[k] = -1
				continue
			}
			a, b := int(prefsA[k]), int(prefsB[k])
			if a+b > sum {
				best, sum = k, a+b
			}
			if a+b < 0 && k != def {
				cells[k] = -1
				continue
			}
			c := int32(2*(a*w+b) + origin)
			if k == def {
				c++
			}
			cells[k] = c
			if c == zero {
				zeros++
			} else {
				x.live[c]++
			}
		}
		x.bestAlt[id], x.bestSum[id] = int32(best), int32(sum)
		x.histA[int(prefsA[best])+p]++
		x.histB[int(prefsB[best])+p]++
		if sum != noSum {
			x.sumOff[sum+2*p]++
		}
	}
	x.live[zero] += zeros
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
			s := int(x.bestSum[id]) + 2*p
			x.byRank[x.sumOff[s]] = int32(id)
			x.sumOff[s]++
		}
	}
	// CSR offsets and occupancy bits, cell by cell in cell order.
	c := 0
	for a := -p; a <= p; a++ {
		for b := -p; b <= p; b++ {
			for d := range 2 {
				l := x.live[c]
				x.start[c+1] = x.start[c] + l
				if l > 0 {
					n.mark(a, b, d, true)
				}
				c++
			}
		}
	}
	// CSR fill in rank order; head doubles as the fill cursor.
	copy(x.head, x.start)
	for _, id := range x.byRank[:ranked] {
		base := int(id) * na
		for k, c := range x.entCell[base : base+na] {
			if c >= 0 {
				x.ents[x.head[c]] = entry{id, int32(k)}
				x.head[c]++
			}
		}
	}
	copy(x.head, x.start)
}

// take removes item id from the table: planned or committed.
func (n *negotiation) take(id int) {
	n.remaining[id] = false
	n.numRemaining--
	x, base, na, p := &n.idx, id*n.numAlts, n.numAlts, n.cfg.PrefBound
	e := base + int(x.bestAlt[id])
	x.histA[int(n.prefsA[e])+p]--
	x.histB[int(n.prefsB[e])+p]--
	for k, c := range x.entCell[base : base+na] {
		if c < 0 {
			continue
		}
		if x.live[c]--; x.live[c] == 0 {
			n.mark(int(n.prefsA[base+k]), int(n.prefsB[base+k]), int(c%2), false)
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
