package simplex

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// rows converts dense constraint rows to the sparse form Problem takes,
// dropping zero coefficients.
func rows(dense [][]float64) []Row {
	out := make([]Row, len(dense))
	for i, d := range dense {
		for j, v := range d {
			if v != 0 {
				out[i].Idx = append(out[i].Idx, int32(j))
				out[i].Val = append(out[i].Val, v)
			}
		}
	}
	return out
}

func solveOK(t *testing.T, p Problem) *Solution {
	t.Helper()
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	return s
}

func TestSimple2D(t *testing.T) {
	// max x+y s.t. x<=2, y<=3  → min -(x+y), optimum -5 at (2,3).
	s := solveOK(t, Problem{
		C:   []float64{-1, -1},
		AUb: rows([][]float64{{1, 0}, {0, 1}}),
		BUb: []float64{2, 3},
	})
	if math.Abs(s.Objective+5) > 1e-6 {
		t.Errorf("objective = %v, want -5", s.Objective)
	}
	if math.Abs(s.X[0]-2) > 1e-6 || math.Abs(s.X[1]-3) > 1e-6 {
		t.Errorf("x = %v, want [2 3]", s.X)
	}
}

func TestClassicLP(t *testing.T) {
	// max 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18 → optimum 36 at (2,6).
	s := solveOK(t, Problem{
		C:   []float64{-3, -5},
		AUb: rows([][]float64{{1, 0}, {0, 2}, {3, 2}}),
		BUb: []float64{4, 12, 18},
	})
	if math.Abs(s.Objective+36) > 1e-6 {
		t.Errorf("objective = %v, want -36", s.Objective)
	}
	if math.Abs(s.X[0]-2) > 1e-6 || math.Abs(s.X[1]-6) > 1e-6 {
		t.Errorf("x = %v, want [2 6]", s.X)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x+2y s.t. x+y=10, x<=4 → x=4, y=6, obj 16.
	s := solveOK(t, Problem{
		C:   []float64{1, 2},
		AUb: rows([][]float64{{1, 0}}),
		BUb: []float64{4},
		AEq: rows([][]float64{{1, 1}}),
		BEq: []float64{10},
	})
	if math.Abs(s.Objective-16) > 1e-6 {
		t.Errorf("objective = %v, want 16", s.Objective)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -5  (i.e. x >= 5) → x=5.
	s := solveOK(t, Problem{
		C:   []float64{1},
		AUb: rows([][]float64{{-1}}),
		BUb: []float64{-5},
	})
	if math.Abs(s.Objective-5) > 1e-6 {
		t.Errorf("objective = %v, want 5", s.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= 1 and x >= 3.
	s, err := Solve(Problem{
		C:   []float64{1},
		AUb: rows([][]float64{{1}, {-1}}),
		BUb: []float64{1, -3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with x >= 0 and no upper bound.
	s, err := Solve(Problem{
		C:   []float64{-1, 0},
		AUb: rows([][]float64{{0, 1}}),
		BUb: []float64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
}

func TestNoConstraints(t *testing.T) {
	s, err := Solve(Problem{C: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || s.Objective != 0 {
		t.Errorf("got %+v, want optimal at 0", s)
	}
	s, err = Solve(Problem{C: []float64{-1}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
}

func TestDegenerate(t *testing.T) {
	// A degenerate LP that cycles under naive Dantzig pivoting
	// (Beale's example).
	s := solveOK(t, Problem{
		C: []float64{-0.75, 150, -0.02, 6},
		AUb: rows([][]float64{
			{0.25, -60, -0.04, 9},
			{0.5, -90, -0.02, 3},
			{0, 0, 1, 0},
		}),
		BUb: []float64{0, 0, 1},
	})
	if math.Abs(s.Objective+0.05) > 1e-6 {
		t.Errorf("objective = %v, want -0.05", s.Objective)
	}
}

func TestValidation(t *testing.T) {
	cases := []Problem{
		{}, // empty objective
		{C: []float64{1}, AUb: rows([][]float64{{1}})},                       // missing bound
		{C: []float64{1}, AUb: rows([][]float64{{1, 2}}), BUb: []float64{1}}, // bad row width
		{C: []float64{1}, AEq: rows([][]float64{{1, 2}}), BEq: []float64{1}}, // bad eq width
		{C: []float64{1}, AEq: rows([][]float64{{1}})},                       // missing eq bound
	}
	for i, p := range cases {
		if _, err := Solve(p); err == nil {
			t.Errorf("case %d: Solve accepted invalid problem", i)
		}
	}
}

// bruteForceLP exhaustively checks all basic solutions of small dense
// problems (vertex enumeration) — an independent oracle.
func bruteForceLP(c []float64, aub [][]float64, bub []float64) (float64, bool) {
	n := len(c)
	m := len(aub)
	// Enumerate subsets of active constraints of size n among
	// {constraint rows} ∪ {x_j = 0}, solve the linear system, and keep
	// feasible points.
	rows := make([][]float64, 0, m+n)
	rhs := make([]float64, 0, m+n)
	for i := 0; i < m; i++ {
		rows = append(rows, aub[i])
		rhs = append(rhs, bub[i])
	}
	for j := 0; j < n; j++ {
		e := make([]float64, n)
		e[j] = 1
		rows = append(rows, e)
		rhs = append(rhs, 0)
	}
	best := math.Inf(1)
	found := false
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			x, ok := solveSquare(rows, rhs, idx)
			if !ok {
				return
			}
			for j := 0; j < n; j++ {
				if x[j] < -1e-7 {
					return
				}
			}
			for i := 0; i < m; i++ {
				var dot float64
				for j := 0; j < n; j++ {
					dot += aub[i][j] * x[j]
				}
				if dot > bub[i]+1e-7 {
					return
				}
			}
			var obj float64
			for j := 0; j < n; j++ {
				obj += c[j] * x[j]
			}
			if obj < best {
				best = obj
				found = true
			}
			return
		}
		for i := start; i < len(rows); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best, found
}

func solveSquare(rows [][]float64, rhs []float64, idx []int) ([]float64, bool) {
	n := len(idx)
	a := make([][]float64, n)
	b := make([]float64, n)
	for i, r := range idx {
		a[i] = append([]float64(nil), rows[r]...)
		b[i] = rhs[r]
	}
	for col := 0; col < n; col++ {
		piv := -1
		for r := col; r < n; r++ {
			if math.Abs(a[r][col]) > 1e-9 {
				piv = r
				break
			}
		}
		if piv == -1 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / a[col][col]
		for j := col; j < n; j++ {
			a[col][j] *= inv
		}
		b[col] *= inv
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col]
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a[r][j] -= f * a[col][j]
			}
			b[r] -= f * b[col]
		}
	}
	return b, true
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(3) // 2..4 variables
		m := 2 + rng.Intn(4) // 2..5 constraints
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.Float64()*4 - 2
		}
		aub := make([][]float64, m)
		bub := make([]float64, m)
		for i := range aub {
			aub[i] = make([]float64, n)
			for j := range aub[i] {
				aub[i][j] = rng.Float64()*4 - 1
			}
			bub[i] = rng.Float64() * 5
		}
		// Add a box constraint so the problem is always bounded.
		box := make([]float64, n)
		for j := range box {
			box[j] = 1
		}
		aub = append(aub, box)
		bub = append(bub, 10)

		want, found := bruteForceLP(c, aub, bub)
		if !found {
			continue
		}
		s, err := Solve(Problem{C: c, AUb: rows(aub), BUb: bub})
		if err != nil {
			t.Fatal(err)
		}
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v, brute force found optimum %v", trial, s.Status, want)
		}
		if math.Abs(s.Objective-want) > 1e-5 {
			t.Errorf("trial %d: objective = %v, brute force = %v", trial, s.Objective, want)
		}
	}
}

func TestSolutionSatisfiesConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		p := Problem{C: make([]float64, n)}
		for j := range p.C {
			p.C[j] = rng.Float64()*2 - 1
		}
		var aub [][]float64
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.Float64()*2 - 0.5
			}
			aub = append(aub, row)
			p.BUb = append(p.BUb, rng.Float64()*4)
		}
		box := make([]float64, n)
		for j := range box {
			box[j] = 1
		}
		aub = append(aub, box)
		p.BUb = append(p.BUb, 20)
		p.AUb = rows(aub)

		s, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if s.Status != Optimal {
			continue
		}
		for j, xj := range s.X {
			if xj < -1e-7 {
				t.Errorf("trial %d: x[%d] = %v negative", trial, j, xj)
			}
		}
		for i, row := range aub {
			var dot float64
			for j := range row {
				dot += row[j] * s.X[j]
			}
			if dot > p.BUb[i]+1e-6 {
				t.Errorf("trial %d: constraint %d violated: %v > %v", trial, i, dot, p.BUb[i])
			}
		}
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("status names wrong")
	}
	if Status(9).String() == "" {
		t.Error("unknown status should stringify")
	}
}

// TestBealeCyclesIntoBland solves Beale's classic example, on which
// Dantzig's rule with this solver's ratio-test tie-break cycles through
// six degenerate bases forever. The stall detector must hand over to
// Bland's rule, which reaches the optimum -1/20 at x = (1/25, 0, 1, 0).
func TestBealeCyclesIntoBland(t *testing.T) {
	const n, m = 4, 3
	p := Problem{
		C:   []float64{-0.75, 150, -0.02, 6},
		AUb: rows([][]float64{{0.25, -60, -0.04, 9}, {0.5, -90, -0.02, 3}, {0, 0, 1, 0}}),
		BUb: []float64{0, 0, 1},
	}
	tb := newTableau(p, holdPivots, tileWidth, 1, 0, picked)
	obj := make([]float64, tb.cols)
	copy(obj, p.C)
	val, err := tb.optimize(obj, tb.cols)
	if err != nil {
		t.Fatal(err)
	}
	if tb.pivots <= stallWindow {
		t.Errorf("%d pivots: solved before the stall window, so Dantzig's rule did not cycle", tb.pivots)
	}
	if math.Abs(val+0.05) > 1e-12 {
		t.Errorf("objective = %v, want -0.05", val)
	}
	x := make([]float64, n)
	for i, col := range tb.basis {
		if col < n {
			x[col] = tb.a[i][n+m]
		}
	}
	want := []float64{0.04, 0, 1, 0}
	for j := range x {
		if math.Abs(x[j]-want[j]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestValidateSparseRows(t *testing.T) {
	row := func(idx []int32, val []float64) []Row { return []Row{{Idx: idx, Val: val}} }
	cases := []struct {
		name string
		p    Problem
		want string // substring of the error
	}{
		{"length mismatch", Problem{C: []float64{1, 1}, AUb: row([]int32{0, 1}, []float64{1}), BUb: []float64{1}},
			"inequality row 0: 2 indices but 1 values"},
		{"negative column", Problem{C: []float64{1, 1}, AUb: row([]int32{-1}, []float64{1}), BUb: []float64{1}},
			"column -1 out of range [0, 2)"},
		{"column past n", Problem{C: []float64{1, 1}, AEq: row([]int32{0, 2}, []float64{1, 1}), BEq: []float64{1}},
			"equality row 0: column 2 out of range [0, 2)"},
		{"duplicate column", Problem{C: []float64{1, 1}, AUb: row([]int32{1, 1}, []float64{1, 2}), BUb: []float64{1}},
			"column 1 follows 1"},
		{"decreasing columns", Problem{C: []float64{1, 1}, AUb: row([]int32{1, 0}, []float64{1, 2}), BUb: []float64{1}},
			"column 0 follows 1"},
	}
	for _, c := range cases {
		_, err := Solve(c.p)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to contain %q", c.name, err, c.want)
		}
	}
	ok := Problem{C: []float64{1, 1}, AUb: row([]int32{0, 1}, []float64{1, 1}), BUb: []float64{1}, AEq: row(nil, nil), BEq: []float64{0}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
}
