// Package simplex is a from-scratch linear-programming solver used to
// compute the paper's globally optimal bandwidth routing (§5.2), which
// minimizes the maximum increase in link load while allowing flows to be
// fractionally divided among interconnections.
//
// The solver minimizes c·x subject to Aub·x <= bub, Aeq·x = beq, x >= 0,
// using the two-phase primal simplex method. Constraint rows arrive
// sparse and are scattered into one contiguous dense tableau. Pivoting
// uses Dantzig's rule (most negative reduced cost) and falls back to
// Bland's anti-cycling rule if the objective stalls, so termination is
// guaranteed. When the problem has only <= rows with non-negative
// right-hand sides, phase one is skipped entirely — the optimal-routing
// LP is formulated that way (see internal/optimal) to keep it fast.
//
// Every tableau row update goes through one kernel, subScaledMulti,
// which takes a row and any number of scaled source rows: for each
// element, x -= f*src in source order, with the row loaded and stored
// once. It runs in AVX-512 or AVX2 on amd64 CPUs a CPUID/XGETBV probe
// finds them on and as a portable loop elsewhere. All multiply, round,
// then subtract, exactly as scalar amd64 code does; none fuses the two
// into an FMA, whose single rounding would move the pivots.
//
// A pivot is held, not applied at once: it brings only the pivot row up
// to date, scales it, keeps a copy and records each other row's entry in
// its column, which the ratio test has just computed. Once eight pivots
// are held, or before anything reads whole rows, flush applies them: it
// walks the columns in tiles, and every row it updates takes all its held
// pivots in one kernel call per tile, so the slots' tile stays in L1
// while every row takes it; a large flush splits its rows across
// GOMAXPROCS goroutines. Every element still gets the same operations in
// the same order as under eager elimination, so neither the hold, the
// tiles, the kernel nor the split moves a bit of the result (DESIGN.md
// §12 "LP tableau").
package simplex

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Status reports the outcome of Solve.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Solution is the result of Solve. X and Objective are meaningful only
// when Status == Optimal.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

// Row is one sparse constraint row: Val[k] is the coefficient of column
// Idx[k], indices strictly increasing; absent columns are zero.
type Row struct {
	Idx []int32
	Val []float64
}

// Problem is an LP in the form: minimize C·x subject to
// AUb·x <= BUb, AEq·x = BEq, x >= 0.
type Problem struct {
	C   []float64
	AUb []Row
	BUb []float64
	AEq []Row
	BEq []float64
}

const (
	eps         = 1e-9
	stallWindow = 64 // pivots without improvement before switching to Bland's rule
	// holdPivots is how many pivots the tableau holds before flush
	// applies them to its rows in one pass over each row.
	holdPivots = 8
	// tileWidth is the width, in columns, of the tiles flush walks: the
	// held slots' tile, 8 × 2 KiB, stays in L1 while every updated row
	// takes it.
	tileWidth = 256
	// fanOutWork is the flush work, in tableau elements (row updates
	// times row width), from which a flush splits its rows across
	// goroutines. Below it the split mostly lands on a core another
	// solve holds (DESIGN.md §12 "LP tableau").
	fanOutWork = 1 << 20
)

// Validate checks the problem dimensions.
func (p *Problem) Validate() error {
	if len(p.C) == 0 {
		return fmt.Errorf("simplex: empty objective")
	}
	if err := checkRows("inequality", p.AUb, p.BUb, len(p.C)); err != nil {
		return err
	}
	return checkRows("equality", p.AEq, p.BEq, len(p.C))
}

// checkRows checks one family of rows against its bounds and n columns.
// A repeated index would silently overwrite when scattered, so indices
// must strictly increase.
func checkRows(kind string, rows []Row, bounds []float64, n int) error {
	if len(rows) != len(bounds) {
		return fmt.Errorf("simplex: %d %s rows but %d bounds", len(rows), kind, len(bounds))
	}
	for i, r := range rows {
		if len(r.Idx) != len(r.Val) {
			return fmt.Errorf("simplex: %s row %d: %d indices but %d values", kind, i, len(r.Idx), len(r.Val))
		}
		for k, j := range r.Idx {
			if j < 0 || int(j) >= n {
				return fmt.Errorf("simplex: %s row %d: column %d out of range [0, %d)", kind, i, j, n)
			}
			if k > 0 && j <= r.Idx[k-1] {
				return fmt.Errorf("simplex: %s row %d: column %d follows %d, indices must strictly increase", kind, i, j, r.Idx[k-1])
			}
		}
	}
	return nil
}

// tableau is the dense simplex tableau. Rows 0..m-1 are constraints with
// the right-hand side in the last column; basis[i] is the column basic in
// row i.
//
// Pivots are held rather than applied at once (DESIGN.md §12 "LP
// tableau"): a row of a is current as of the last flush, and its current
// value is that row with the held pivots applied in order. Slot s holds
// the s-th held pivot row, scaled; fac[i*hold+s] is row i's entry in that
// pivot's column just before it, or 0 where the pivot skips row i (a zero
// entry, the pivot row itself, or a pivot the row has taken already).
type tableau struct {
	a      [][]float64 // m x (cols+1), rows of one contiguous array
	basis  []int
	m      int
	cols   int // number of structural+slack+artificial columns (excludes RHS)
	pivots int // pivots made so far

	slots [][]float64 // hold pivot rows, each cols+1 wide
	held  int         // slots in use
	fac   []float64   // m x hold factors
	col   []float64   // scratch: the entering column with the held pivots applied
	// flush works on column tiles of tile elements. A flush applying at
	// least minWork elements of row updates splits its rows into at most
	// parts runs; below that, or with parts <= 1, one loop.
	tile, parts, minWork int
	touched              []int    // scratch: the rows a flush updates
	kernel               kernelID // the row kernel every update runs on
}

// Solve runs the two-phase simplex method.
func Solve(p Problem) (*Solution, error) {
	return solve(p, holdPivots, tileWidth, runtime.GOMAXPROCS(0), fanOutWork, picked)
}

// solve is Solve with the held pivots, the flush's tile width, its
// fan-out's parts and work threshold and the row kernel given, so tests
// can force any schedule on any kernel.
func solve(p Problem, hold, tile, parts, minWork int, kernel kernelID) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.C)
	mUb := len(p.AUb)

	if mUb+len(p.AEq) == 0 {
		// No constraints: optimum is 0 if c >= 0, else unbounded.
		for _, ci := range p.C {
			if ci < -eps {
				return &Solution{Status: Unbounded}, nil
			}
		}
		return &Solution{Status: Optimal, X: make([]float64, n)}, nil
	}

	t := newTableau(p, hold, tile, parts, minWork, kernel)
	if t.cols > n+mUb {
		// Phase 1: minimize the sum of artificials.
		obj := make([]float64, t.cols)
		for j := n + mUb; j < t.cols; j++ {
			obj[j] = 1
		}
		// The phase-1 objective is bounded below by 0, so errUnbounded
		// here, like any error, is a bug.
		val, err := t.optimize(obj, t.cols)
		if err != nil {
			return nil, err
		}
		if val > 1e-7 {
			return &Solution{Status: Infeasible}, nil
		}
		t.driveOutArtificials(n + mUb)
	}

	// Phase 2: original objective over structural + slack columns only.
	obj := make([]float64, t.cols)
	copy(obj, p.C)
	forbidden := n + mUb // artificial columns may not re-enter
	val, err := t.optimize(obj, forbidden)
	if errors.Is(err, errUnbounded) {
		return &Solution{Status: Unbounded}, nil
	}
	if err != nil {
		return nil, err
	}
	x := make([]float64, n)
	for i, b := range t.basis {
		if b < n {
			x[b] = t.a[i][t.cols]
		}
	}
	return &Solution{Status: Optimal, X: x, Objective: val}, nil
}

// newTableau scatters a validated p with at least one row into a
// tableau holding up to hold pivots. Columns are laid out [0,n)
// structural, [n, n+mUb) slacks, then one artificial for each equality
// row and each inequality row with a negative bound. Every row update
// runs on kernel.
func newTableau(p Problem, hold, tile, parts, minWork int, kernel kernelID) *tableau {
	n := len(p.C)
	mUb, mEq := len(p.AUb), len(p.AEq)
	m := mUb + mEq
	numArt := mEq
	for _, b := range p.BUb {
		if b < 0 {
			numArt++
		}
	}
	cols := n + mUb + numArt
	w := cols + 1
	t := &tableau{
		a: make([][]float64, m), basis: make([]int, m), m: m, cols: cols,
		slots: make([][]float64, hold), fac: make([]float64, m*hold), col: make([]float64, m),
		tile: tile, parts: parts, minWork: minWork, kernel: kernel,
	}
	backing := make([]float64, (m+hold)*w)
	artCol := n + mUb
	for i := 0; i < m; i++ {
		row := backing[i*w : (i+1)*w : (i+1)*w]
		var src Row
		var b float64
		if i < mUb {
			src, b = p.AUb[i], p.BUb[i]
		} else {
			src, b = p.AEq[i-mUb], p.BEq[i-mUb]
		}
		sign := 1.0
		if b < 0 {
			sign = -1
			b = -b
		}
		for k, j := range src.Idx {
			row[j] = sign * src.Val[k]
		}
		if i < mUb {
			row[n+i] = sign // slack (+1, or -1 for negated rows → surplus)
		}
		row[cols] = b
		if i >= mUb || sign < 0 {
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		} else {
			t.basis[i] = n + i
		}
		t.a[i] = row
	}
	for s := range t.slots {
		t.slots[s] = backing[(m+s)*w : (m+s+1)*w : (m+s+1)*w]
	}
	return t
}

// errUnbounded is optimize's report that obj decreases without bound.
var errUnbounded = errors.New("simplex: unbounded")

// optimize minimizes obj using only columns < limit as entering
// candidates, and returns the objective value. It starts and, on
// success, ends with no pivot held.
func (t *tableau) optimize(obj []float64, limit int) (float64, error) {
	// Reduced costs: start from obj, then price out the current basis.
	red := make([]float64, t.cols+1)
	copy(red, obj)
	var srcs [][]float64
	var fs []float64
	for i, b := range t.basis {
		if cb := obj[b]; cb != 0 {
			srcs, fs = append(srcs, t.a[i]), append(fs, cb)
		}
	}
	subScaledMulti(t.kernel, red, srcs, fs)

	bland := false
	stall := 0
	lastObj := math.Inf(1)
	maxIter := 50 * (t.m + t.cols + 10)
	for iter := 0; iter < maxIter; iter++ {
		// Entering column.
		enter := -1
		if bland {
			for j := 0; j < limit; j++ {
				if red[j] < -eps {
					enter = j
					break
				}
			}
		} else {
			best := -eps
			for j := 0; j < limit; j++ {
				if red[j] < best {
					best = red[j]
					enter = j
				}
			}
		}
		if enter == -1 {
			t.flush()
			return -red[t.cols], nil
		}
		// Leaving row: minimum ratio test, ties to smallest basis index
		// (harmless normally, required under Bland's rule).
		leave := -1
		bestRatio := math.Inf(1)
		for i, aij := range t.column(enter) {
			if aij > eps {
				r := t.at(i, t.cols) / aij
				if r < bestRatio-eps || (r < bestRatio+eps && (leave == -1 || t.basis[i] < t.basis[leave])) {
					bestRatio = r
					leave = i
				}
			}
		}
		if leave == -1 {
			return 0, errUnbounded
		}
		t.pivot(leave, enter, red)

		// Stall detection → Bland's rule for guaranteed termination.
		cur := -red[t.cols]
		if cur < lastObj-eps {
			lastObj = cur
			stall = 0
		} else {
			stall++
			if stall > stallWindow {
				bland = true
			}
		}
	}
	// Bland's rule cannot cycle, so this means numerical trouble; the
	// basis in hand is not known to be optimal.
	return 0, fmt.Errorf("simplex: no optimum after %d iterations (%d rows, %d columns)", maxIter, t.m, t.cols)
}

// at returns row i's current entry in column j: the stored entry with
// the held pivots applied, by the same multiply, round, subtract that
// flush will perform on it.
func (t *tableau) at(i, j int) float64 {
	h := len(t.slots)
	x := t.a[i][j]
	for s, f := range t.fac[i*h : i*h+t.held] {
		if f != 0 {
			x -= float64(f * t.slots[s][j])
		}
	}
	return x
}

// column returns every row's current entry in column j, in a scratch
// slice that the next call overwrites and pivot reads.
func (t *tableau) column(j int) []float64 {
	for i := range t.col {
		t.col[i] = t.at(i, j)
	}
	return t.col
}

// pivot makes col basic in row, with t.col holding column col as
// column(col) returned it. It brings the pivot row up to date, scales
// it, holds it as the next slot with each other row's entry in col as
// that row's factor, and updates the reduced-cost row. The other rows
// take the pivot when flush runs, which it does once every slot is
// full.
func (t *tableau) pivot(row, col int, red []float64) {
	h := len(t.slots)
	ar := t.a[row]
	fr := t.fac[row*h : row*h+h]
	var srcBuf [holdPivots][]float64
	var fBuf [holdPivots]float64
	srcs, fs := t.gather(srcBuf[:0], fBuf[:0], fr[:t.held], 0, len(ar))
	subScaledMulti(t.kernel, ar, srcs, fs)
	clear(fr)
	inv := 1 / ar[col]
	for j := range ar {
		ar[j] *= inv
	}
	s := t.held
	copy(t.slots[s], ar)
	for i, v := range t.col {
		if i != row {
			t.fac[i*h+s] = v
		}
	}
	t.held++
	if f := red[col]; f != 0 {
		subScaledMulti(t.kernel, red, [][]float64{ar}, []float64{f})
	}
	t.basis[row] = col
	t.pivots++
	if t.held == h {
		t.flush()
	}
}

// flush applies the held pivots to every row with a nonzero factor.
// Each row reads only itself and the slots, which stay fixed meanwhile,
// so the rows are split into contiguous runs updated concurrently when
// the work is worth it.
func (t *tableau) flush() {
	if t.held == 0 {
		return
	}
	h := len(t.slots)
	t.touched = t.touched[:0]
	updates := 0
	for i := 0; i < t.m; i++ {
		k := 0
		for _, f := range t.fac[i*h : i*h+t.held] {
			if f != 0 {
				k++
			}
		}
		if k > 0 {
			t.touched = append(t.touched, i)
			updates += k
		}
	}
	rows := t.touched
	parts := min(t.parts, len(rows))
	if updates*(t.cols+1) < t.minWork {
		parts = 1
	}
	if parts <= 1 {
		t.apply(rows)
	} else {
		var wg sync.WaitGroup
		wg.Add(parts - 1)
		for p := 1; p < parts; p++ {
			go func(run []int) {
				defer wg.Done()
				t.apply(run)
			}(rows[p*len(rows)/parts : (p+1)*len(rows)/parts])
		}
		t.apply(rows[:len(rows)/parts])
		wg.Wait()
	}
	t.held = 0
}

// apply gives each of rows the held pivots, in order, and clears the
// row's factors. It walks the columns in tiles and, in each, passes
// every row its nonzero-factor slots' tiles in one kernel call, so the
// slots' tile stays in L1 while every row takes it and each row tile is
// loaded and stored once per flush.
func (t *tableau) apply(rows []int) {
	h := len(t.slots)
	w := t.cols + 1
	var srcBuf [holdPivots][]float64
	var fBuf [holdPivots]float64
	for j0 := 0; j0 < w; j0 += t.tile {
		j1 := min(j0+t.tile, w)
		for _, i := range rows {
			srcs, fs := t.gather(srcBuf[:0], fBuf[:0], t.fac[i*h:i*h+t.held], j0, j1)
			subScaledMulti(t.kernel, t.a[i][j0:j1], srcs, fs)
		}
	}
	for _, i := range rows {
		clear(t.fac[i*h : i*h+t.held])
	}
}

// gather appends to srcs and fs columns [j0, j1) of each slot whose
// factor in fr is nonzero, and that factor: a zero factor is skipped, as
// eager elimination skips a zero pivot-column entry.
func (t *tableau) gather(srcs [][]float64, fs, fr []float64, j0, j1 int) ([][]float64, []float64) {
	for s, f := range fr {
		if f != 0 {
			srcs, fs = append(srcs, t.slots[s][j0:j1]), append(fs, f)
		}
	}
	return srcs, fs
}

// driveOutArtificials pivots basic artificial variables (value ~0 after a
// successful phase 1) out of the basis where a non-artificial pivot
// column exists; rows that cannot pivot are redundant and are zeroed.
// The scan reads whole rows, so each pivot is flushed at once.
func (t *tableau) driveOutArtificials(firstArt int) {
	dummy := make([]float64, t.cols+1) // reduced costs nobody reads
	for i := 0; i < t.m; i++ {
		if t.basis[i] < firstArt {
			continue
		}
		pivCol := -1
		for j := 0; j < firstArt; j++ {
			if math.Abs(t.a[i][j]) > eps {
				pivCol = j
				break
			}
		}
		if pivCol == -1 {
			// Redundant row: keep it inert.
			for j := 0; j <= t.cols; j++ {
				if j != t.basis[i] {
					t.a[i][j] = 0
				}
			}
			continue
		}
		t.column(pivCol)
		t.pivot(i, pivCol, dummy)
		t.flush()
	}
}

// kernelID names a row kernel; kernelGo, the portable loop, runs on
// every GOARCH.
type kernelID uint8

const kernelGo kernelID = 0

// trim cuts dst to the length it shares with every source and fs to one
// factor per source; fs shorter than srcs panics.
func trim(dst []float64, srcs [][]float64, fs []float64) ([]float64, []float64) {
	fs = fs[:len(srcs)]
	n := len(dst)
	for _, src := range srcs {
		n = min(n, len(src))
	}
	return dst[:n], fs
}

// subScaledGo is the portable subScaledMulti and the other kernels'
// oracle: for j below the common length, dst[j] -= fs[s]*srcs[s][j] for
// each source s in order. The float64 conversion rounds each product
// before its subtraction, so no GOARCH fuses the two into an FMA
// (DESIGN.md §12 "LP tableau").
func subScaledGo(dst []float64, srcs [][]float64, fs []float64) {
	dst, fs = trim(dst, srcs, fs)
	for j, x := range dst {
		for s, src := range srcs {
			x -= float64(fs[s] * src[j])
		}
		dst[j] = x
	}
}
