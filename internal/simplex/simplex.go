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
// Every tableau row update, dst[j] -= f*src[j], goes through one kernel,
// subScaled: SSE2 on amd64, a portable loop elsewhere. Both multiply,
// round, then subtract, exactly as scalar amd64 code does; neither fuses
// the two into an FMA, whose single rounding would move the pivots.
//
// A pivot whose row updates are large enough is split across GOMAXPROCS
// goroutines, each updating a contiguous run of rows. Every row gets the
// same subScaled call from the same pivot row either way, so the split
// changes no bit of the result (DESIGN.md §12 "LP tableau").
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
	// fanOutWork is the pivot work, in tableau elements (rows to update
	// times row width), from which a pivot splits its row updates across
	// goroutines. Below it a goroutine's start costs more than it saves.
	fanOutWork = 1 << 16
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
type tableau struct {
	a      [][]float64 // m x (cols+1), rows of one contiguous array
	basis  []int
	m      int
	cols   int // number of structural+slack+artificial columns (excludes RHS)
	pivots int // pivots made so far
	// A pivot updating at least minWork elements splits its rows into
	// at most parts runs; below that, or with parts <= 1, one loop.
	parts, minWork int
	touched        []int // scratch: the rows a pivot updates
}

// Solve runs the two-phase simplex method.
func Solve(p Problem) (*Solution, error) {
	return solve(p, runtime.GOMAXPROCS(0), fanOutWork)
}

// solve is Solve with the pivot fan-out's parts and work threshold
// given, so tests can force any split.
func solve(p Problem, parts, minWork int) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.C)
	mUb, mEq := len(p.AUb), len(p.AEq)
	m := mUb + mEq

	if m == 0 {
		// No constraints: optimum is 0 if c >= 0, else unbounded.
		for _, ci := range p.C {
			if ci < -eps {
				return &Solution{Status: Unbounded}, nil
			}
		}
		return &Solution{Status: Optimal, X: make([]float64, n)}, nil
	}

	// Column layout: [0,n) structural, [n, n+mUb) slacks,
	// [n+mUb, n+mUb+numArt) artificials.
	numArt := 0
	needsArt := make([]bool, m)
	for i := 0; i < mUb; i++ {
		if p.BUb[i] < 0 {
			needsArt[i] = true
			numArt++
		}
	}
	for i := 0; i < mEq; i++ {
		needsArt[mUb+i] = true
		numArt++
	}
	cols := n + mUb + numArt
	t := &tableau{m: m, cols: cols, basis: make([]int, m), a: make([][]float64, m), parts: parts, minWork: minWork}
	w := cols + 1
	backing := make([]float64, m*w)
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
		if needsArt[i] {
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		} else {
			t.basis[i] = n + i
		}
		t.a[i] = row
	}

	if numArt > 0 {
		// Phase 1: minimize the sum of artificials.
		obj := make([]float64, cols)
		for j := n + mUb; j < cols; j++ {
			obj[j] = 1
		}
		// The phase-1 objective is bounded below by 0, so errUnbounded
		// here, like any error, is a bug.
		val, err := t.optimize(obj, cols)
		if err != nil {
			return nil, err
		}
		if val > 1e-7 {
			return &Solution{Status: Infeasible}, nil
		}
		t.driveOutArtificials(n + mUb)
	}

	// Phase 2: original objective over structural + slack columns only.
	obj := make([]float64, cols)
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
			x[b] = t.a[i][cols]
		}
	}
	return &Solution{Status: Optimal, X: x, Objective: val}, nil
}

// errUnbounded is optimize's report that obj decreases without bound.
var errUnbounded = errors.New("simplex: unbounded")

// optimize minimizes obj using only columns < limit as entering
// candidates, and returns the objective value.
func (t *tableau) optimize(obj []float64, limit int) (float64, error) {
	// Reduced costs: start from obj, then price out the current basis.
	red := make([]float64, t.cols+1)
	copy(red, obj)
	for i, b := range t.basis {
		if cb := obj[b]; cb != 0 {
			subScaled(red, t.a[i], cb)
		}
	}

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
			return -red[t.cols], nil
		}
		// Leaving row: minimum ratio test, ties to smallest basis index
		// (harmless normally, required under Bland's rule).
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			if aij > eps {
				r := t.a[i][t.cols] / aij
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

// pivot performs a Gauss-Jordan pivot on (row, col) and updates the
// reduced-cost row.
func (t *tableau) pivot(row, col int, red []float64) {
	ar := t.a[row]
	inv := 1 / ar[col]
	for j := range ar {
		ar[j] *= inv
	}
	t.touched = t.touched[:0]
	for i, ai := range t.a {
		if i != row && ai[col] != 0 {
			t.touched = append(t.touched, i)
		}
	}
	t.eliminate(t.touched, ar, col)
	if f := red[col]; f != 0 {
		subScaled(red, ar, f)
	}
	t.basis[row] = col
	t.pivots++
}

// eliminate subtracts the pivot row ar, scaled by each row's entry in
// column col, from every row listed in rows. Each row reads only itself
// and ar, which stays fixed meanwhile, so the rows are split into
// contiguous runs updated concurrently when the work is worth it.
func (t *tableau) eliminate(rows []int, ar []float64, col int) {
	parts := min(t.parts, len(rows))
	if len(rows)*len(ar) < t.minWork {
		parts = 1
	}
	if parts <= 1 {
		t.update(rows, ar, col)
		return
	}
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for p := 1; p < parts; p++ {
		go func(run []int) {
			defer wg.Done()
			t.update(run, ar, col)
		}(rows[p*len(rows)/parts : (p+1)*len(rows)/parts])
	}
	t.update(rows[:len(rows)/parts], ar, col)
	wg.Wait()
}

// update eliminates column col from each of rows with the pivot row ar.
func (t *tableau) update(rows []int, ar []float64, col int) {
	for _, i := range rows {
		ai := t.a[i]
		subScaled(ai, ar, ai[col])
	}
}

// driveOutArtificials pivots basic artificial variables (value ~0 after a
// successful phase 1) out of the basis where a non-artificial pivot
// column exists; rows that cannot pivot are redundant and are zeroed.
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
		t.pivot(i, pivCol, dummy)
	}
}

// subScaledGo is the portable subScaled. The float64 conversion rounds
// the product before the subtraction, so no GOARCH fuses the two into an
// FMA (DESIGN.md §12 "LP tableau").
func subScaledGo(dst, src []float64, f float64) {
	n := min(len(dst), len(src))
	dst, src = dst[:n], src[:n]
	for j := range dst {
		dst[j] -= float64(f * src[j])
	}
}
