package nexit

import (
	"math/rand"
	"slices"
	"testing"
)

// admits is the gate's rule written out cell by cell: whether classes
// (a, b) may be proposed, as the default alternative or as a move off it.
func (g *gate) admits(a, b int, isDefault bool) bool {
	if a < g.floorA || b < g.floorB {
		return false
	}
	return isDefault || a+b > 0 || (a+b == 0 && a >= g.evenA && b >= g.evenB)
}

// bruteForcePick is pick's oracle: a scan over every live entry, keeping
// the admitted one that ranks first for the proposer — (sum, own class)
// descending, then the item's best sum descending; scanning IDs and alternatives upwards and
// replacing only on a strictly better key leaves the ascending tie-breaks.
func bruteForcePick(n *negotiation, proposer Side, g *gate) (id, alt int, ok bool) {
	var best [3]int
	id, alt = -1, -1
	for i, live := range n.remaining {
		if !live {
			continue
		}
		itemBest := noSum
		for k := 0; k < n.numAlts; k++ {
			if e := i*n.numAlts + k; !n.vetoed[e] {
				itemBest = max(itemBest, int(n.prefsA[e])+int(n.prefsB[e]))
			}
		}
		for k := 0; k < n.numAlts; k++ {
			e := i*n.numAlts + k
			a, b := int(n.prefsA[e]), int(n.prefsB[e])
			if n.vetoed[e] || !g.admits(a, b, k == n.defaults[i]) {
				continue
			}
			own := a
			if proposer == SideB {
				own = b
			}
			key := [3]int{a + b, own, itemBest}
			if id < 0 || key[0] > best[0] || (key[0] == best[0] && (key[1] > best[1] || (key[1] == best[1] && key[2] > best[2]))) {
				best, id, alt = key, i, k
			}
		}
	}
	return id, alt, id >= 0
}

// TestPickMatchesBruteForce holds pick to bruteForcePick over random
// index states — classes drawn from a few values so cells hold many
// entries, nonzero default classes, vetoes, items taken between picks,
// rebuilds — under random gates, recovery gates (floor 1 on one side)
// included, at bounds from 1 to the wide ones.
func TestPickMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	bounds := append([]int{1, 3, 10}, wideBounds...)
	picks := 0
	for trial := 0; trial < 400; trial++ {
		p := bounds[trial%len(bounds)]
		na, items := 1+rng.Intn(6), 1+rng.Intn(60)
		palette := make([]int32, 2+rng.Intn(6))
		for i := range palette {
			palette[i] = int32(rng.Intn(2*p+1) - p)
		}
		n := &negotiation{
			cfg:     Config{PrefBound: p},
			numAlts: na, defaults: make([]int, items),
			prefsA: make([]int32, items*na), prefsB: make([]int32, items*na),
			vetoed: make([]bool, items*na), remaining: make([]bool, items),
		}
		n.items = make([]Item, items)
		for i := range n.items {
			n.items[i].ID, n.defaults[i] = i, rng.Intn(na)
			n.remaining[i] = rng.Intn(5) != 0
			if n.remaining[i] {
				n.numRemaining++
			}
		}
		for e := range n.prefsA {
			n.prefsA[e], n.prefsB[e] = palette[rng.Intn(len(palette))], palette[rng.Intn(len(palette))]
			n.vetoed[e] = rng.Intn(10) == 0
		}
		n.newIndex()
		n.build()
		for step := 0; step < 3*items; step++ {
			switch r := rng.Intn(8); {
			case r < 2 && n.numRemaining > 0:
				id := rng.Intn(items)
				for !n.remaining[id] {
					id = (id + 1) % items
				}
				n.take(id)
			case r == 2:
				n.vetoed[rng.Intn(len(n.vetoed))] = true
				n.build()
			default:
				g := gate{
					floorA: rng.Intn(2*p+4) - p - 3, floorB: rng.Intn(2*p+4) - p - 3,
					evenA: rng.Intn(4*p+5) - 2*p - 2, evenB: rng.Intn(4*p+5) - 2*p - 2,
				}
				switch rng.Intn(4) {
				case 0:
					g.floorA = max(g.floorA, 1)
				case 1:
					g.floorB = max(g.floorB, 1)
				case 2:
					g.floorA, g.floorB = -1<<20, -1<<20
				}
				proposer := Side(rng.Intn(2))
				wantID, wantAlt, wantOK := bruteForcePick(n, proposer, &g)
				id, alt, ok := n.pick(proposer, &g)
				if id != wantID || alt != wantAlt || ok != wantOK {
					t.Fatalf("trial %d step %d (P=%d, proposer %v, gate %+v): pick = (%d, %d, %v), brute force (%d, %d, %v)",
						trial, step, p, proposer, g, id, alt, ok, wantID, wantAlt, wantOK)
				}
				if ok {
					picks++
				}
			}
		}
	}
	if picks < 1000 {
		t.Fatalf("only %d picks found an entry; the states no longer exercise pick", picks)
	}
}

// indexState returns a negotiation whose index is built over a random
// table, drawn the way TestPickMatchesBruteForce draws its own: classes
// from a small palette so cells hold many entries, nonzero default
// classes, a tenth of the entries vetoed and a fifth of the items off the
// table. intn(k) returns a draw from [0, k).
func indexState(p int, intn func(int) int) *negotiation {
	na, items := 1+intn(6), 1+intn(60)
	palette := make([]int32, 2+intn(6))
	for i := range palette {
		palette[i] = int32(intn(2*p+1) - p)
	}
	n := &negotiation{
		cfg:     Config{PrefBound: p},
		numAlts: na, defaults: make([]int, items),
		prefsA: make([]int32, items*na), prefsB: make([]int32, items*na),
		vetoed: make([]bool, items*na), remaining: make([]bool, items),
	}
	n.items = make([]Item, items)
	for i := range n.items {
		n.items[i].ID, n.defaults[i] = i, intn(na)
		n.remaining[i] = intn(5) != 0
		if n.remaining[i] {
			n.numRemaining++
		}
	}
	for e := range n.prefsA {
		n.prefsA[e], n.prefsB[e] = palette[intn(len(palette))], palette[intn(len(palette))]
		n.vetoed[e] = intn(10) == 0
	}
	n.newIndex()
	n.build()
	return n
}

// takeAny takes an item on the table, the first from a random ID on.
func takeAny(n *negotiation, intn func(int) int) {
	id := intn(len(n.items))
	for !n.remaining[id] {
		id = (id + 1) % len(n.items)
	}
	n.take(id)
}

// FuzzPickMatchesBruteForce holds pick to bruteForcePick as
// TestPickMatchesBruteForce does, on index states and operation
// sequences decoded from the input: the first byte picks P in 1..127, so
// rows of one to eight words occur, the next two seed the table's draws,
// and every later byte is one operation — a take, a veto and rebuild, or
// a pick under a plain or recovery gate read from the bytes after it.
func FuzzPickMatchesBruteForce(f *testing.F) {
	rng := rand.New(rand.NewSource(53))
	for _, p := range []byte{0, 2, 9, 30, 31, 49, 63, 99, 126} {
		for range 4 {
			seed := []byte{p, byte(rng.Intn(256)), byte(rng.Intn(256))}
			for i := rng.Intn(1500); i > 0; i-- {
				seed = append(seed, byte(rng.Intn(256)))
			}
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		intn := func(k int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % k
		}
		p := 1 + intn(127)
		table := rand.New(rand.NewSource(int64(intn(256)<<8 | intn(256))))
		n := indexState(p, table.Intn)
		for step := 0; len(data) > 0; step++ {
			switch r := intn(8); {
			case r < 2 && n.numRemaining > 0:
				takeAny(n, intn)
			case r == 2:
				n.vetoed[intn(len(n.vetoed))] = true
				n.build()
			default:
				g := gate{
					floorA: intn(2*p+4) - p - 3, floorB: intn(2*p+4) - p - 3,
					evenA: intn(4*p+5) - 2*p - 2, evenB: intn(4*p+5) - 2*p - 2,
				}
				switch intn(4) {
				case 0:
					g.floorA = max(g.floorA, 1)
				case 1:
					g.floorB = max(g.floorB, 1)
				case 2:
					g.floorA, g.floorB = -1<<20, -1<<20
				}
				proposer := Side(intn(2))
				wantID, wantAlt, wantOK := bruteForcePick(n, proposer, &g)
				if id, alt, ok := n.pick(proposer, &g); id != wantID || alt != wantAlt || ok != wantOK {
					t.Fatalf("step %d (P=%d, proposer %v, gate %+v): pick = (%d, %d, %v), brute force (%d, %d, %v)",
						step, p, proposer, g, id, alt, ok, wantID, wantAlt, wantOK)
				}
			}
		}
	})
}

// TestTakeMatchesRebuild holds the index that take maintains to a fresh
// build over the same items: after every take, the live count of every
// cell, every occupancy word, the live rows and both stop-check
// histograms must equal those of an index built from scratch. A stale
// live-row bit only costs pick a visit, so no pick oracle would see it.
// Vetoes rebuild between takes.
func TestTakeMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, p := range []int{1, 10, 15, 16, 31, 32, 50, 100} {
		for trial := 0; trial < 40; trial++ {
			n := indexState(p, rng.Intn)
			for n.numRemaining > 0 {
				if rng.Intn(6) == 0 {
					n.vetoed[rng.Intn(len(n.vetoed))] = true
					n.build()
				}
				takeAny(n, rng.Intn)
				fresh := &negotiation{
					cfg: n.cfg, items: n.items, defaults: n.defaults, numAlts: n.numAlts,
					prefsA: n.prefsA, prefsB: n.prefsB, vetoed: n.vetoed,
					remaining: n.remaining, numRemaining: n.numRemaining,
				}
				fresh.newIndex()
				fresh.build()
				x, y := &n.idx, &fresh.idx
				for _, c := range []struct {
					name      string
					got, want []int32
				}{{"live", x.live, y.live}, {"histA", x.histA, y.histA}, {"histB", x.histB, y.histB}} {
					if !slices.Equal(c.got, c.want) {
						t.Fatalf("P=%d trial %d, %d items left: %s after takes %v, rebuilt %v",
							p, trial, n.numRemaining, c.name, c.got, c.want)
					}
				}
				for i := range x.occ {
					if x.occ[i] != y.occ[i] {
						t.Fatalf("P=%d trial %d, %d items left: occupancy word %d is %#x after takes, %#x rebuilt",
							p, trial, n.numRemaining, i, x.occ[i], y.occ[i])
					}
				}
				if !slices.Equal(x.liveRows, y.liveRows) {
					t.Fatalf("P=%d trial %d, %d items left: live rows %#x after takes, %#x rebuilt",
						p, trial, n.numRemaining, x.liveRows, y.liveRows)
				}
			}
		}
	}
}
