package simplex

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// decodeLP reads a small LP from data: three header bytes give the
// column count (1–6), inequality rows (0–5) and equality rows (0–3);
// every later byte is one coefficient in sixteenths, signed, filling the
// objective, then each row's coefficients and bound in turn. Zeros are
// common, so rows are sparse and ties are frequent, and negative bounds
// and equality rows send the solve through phase one and
// driveOutArtificials. Missing bytes read as zero.
func decodeLP(data []byte) Problem {
	next := func() float64 {
		if len(data) == 0 {
			return 0
		}
		v := float64(int8(data[0])) / 16
		data = data[1:]
		return v
	}
	header := func(mod int) int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0]) % mod
		data = data[1:]
		return v
	}
	n := 1 + header(6)
	mUb, mEq := header(6), header(4)
	p := Problem{C: make([]float64, n)}
	for j := range p.C {
		p.C[j] = next()
	}
	row := func() (Row, float64) {
		var r Row
		for j := 0; j < n; j++ {
			if v := next(); v != 0 {
				r.Idx = append(r.Idx, int32(j))
				r.Val = append(r.Val, v)
			}
		}
		return r, next()
	}
	for i := 0; i < mUb; i++ {
		r, b := row()
		p.AUb, p.BUb = append(p.AUb, r), append(p.BUb, b)
	}
	for i := 0; i < mEq; i++ {
		r, b := row()
		p.AEq, p.BEq = append(p.AEq, r), append(p.BEq, b)
	}
	return p
}

// Held-pivot schedules checkFanOut runs: every hold with every flush
// tile width and every fan-out of 1–4 runs.
var (
	fanOutHolds = []int{1, 2, 3, 4, 8}
	fanOutTiles = []int{1, 3, 512}
)

// checkFanOut solves p holding one pivot at a time in one loop on the
// portable kernel, the eager schedule, then under every held-pivot
// schedule with every flush split into 1–4 runs on every kernel this CPU
// can run, and fails unless the outcomes agree bit for bit.
func checkFanOut(t *testing.T, p Problem) {
	t.Helper()
	want, wantErr := solve(p, 1, tileWidth, 1, 0, kernelGo)
	for _, k := range kernels() {
		for _, hold := range fanOutHolds {
			for _, tile := range fanOutTiles {
				for parts := 1; parts <= 4; parts++ {
					checkSchedule(t, p, want, wantErr, k, hold, tile, parts)
				}
			}
		}
	}
}

// checkSchedule solves p under one schedule on kernel k and fails unless
// the outcome is want, wantErr bit for bit.
func checkSchedule(t *testing.T, p Problem, want *Solution, wantErr error, k kernel, hold, tile, parts int) {
	t.Helper()
	got, err := solve(p, hold, tile, parts, 0, k.id)
	sched := fmt.Sprintf("%s, hold %d, tile %d, %d parts", k.name, hold, tile, parts)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, eager %v", sched, err, wantErr)
	}
	if err != nil {
		return
	}
	if got.Status != want.Status || !sameBits(got.Objective, want.Objective) || len(got.X) != len(want.X) {
		t.Fatalf("%s: %v objective %v, eager %v objective %v",
			sched, got.Status, got.Objective, want.Status, want.Objective)
	}
	for j := range got.X {
		if !sameBits(got.X[j], want.X[j]) {
			t.Fatalf("%s: x[%d] = %v, eager %v", sched, j, got.X[j], want.X[j])
		}
	}
}

// lpBytes encodes an LP for decodeLP: header bytes, then coefficients
// in sixteenths.
func lpBytes(n, mUb, mEq int, coef ...float64) []byte {
	b := []byte{byte(n - 1), byte(mUb), byte(mEq)}
	for _, v := range coef {
		b = append(b, byte(int8(math.Round(v*16))))
	}
	return b
}

// denseLP is a seeded feasible, bounded LP with m rows over n columns:
// dense <= rows with positive coefficients bound every column, and every
// fourth row is instead a >= row (a negative bound) or an equality,
// both holding at a random point x0 >= 0, so phase one runs on a
// tableau of real size.
func denseLP(seed int64, m, n int) Problem {
	rng := rand.New(rand.NewSource(seed))
	x0 := make([]float64, n)
	for j := range x0 {
		if rng.Intn(3) == 0 {
			x0[j] = rng.Float64()
		}
	}
	p := Problem{C: make([]float64, n)}
	for j := range p.C {
		p.C[j] = rng.Float64()*2 - 1
	}
	for i := 0; i < m; i++ {
		var r Row
		dot := 0.0
		for j := 0; j < n; j++ {
			if rng.Intn(4) != 0 {
				v := 0.25 + rng.Float64()
				r.Idx, r.Val = append(r.Idx, int32(j)), append(r.Val, v)
				dot += v * x0[j]
			}
		}
		switch {
		case i%4 != 3:
			p.AUb, p.BUb = append(p.AUb, r), append(p.BUb, dot+1+rng.Float64())
		case i%8 == 3:
			neg := Row{Idx: r.Idx, Val: make([]float64, len(r.Val))}
			for k, v := range r.Val {
				neg.Val[k] = -v
			}
			p.AUb, p.BUb = append(p.AUb, neg), append(p.BUb, -dot/2)
		default:
			p.AEq, p.BEq = append(p.AEq, r), append(p.BEq, dot)
		}
	}
	return p
}

func TestSolveFanOutMatchesOneLoop(t *testing.T) {
	// A 40x60 LP with a dense mix of rows takes enough pivots, each
	// touching enough rows, to exercise every split.
	const n, m = 60, 40
	grid := Problem{C: make([]float64, n)}
	for j := range grid.C {
		grid.C[j] = -float64(1 + (j*7)%5)
	}
	for i := 0; i < m; i++ {
		var r Row
		for j := 0; j < n; j++ {
			if (i+j)%3 != 0 {
				r.Idx = append(r.Idx, int32(j))
				r.Val = append(r.Val, float64(1+(i*j)%7)/4)
			}
		}
		grid.AUb, grid.BUb = append(grid.AUb, r), append(grid.BUb, float64(10+i%9))
	}
	beale := Problem{
		C:   []float64{-0.75, 150, -0.02, 6},
		AUb: rows([][]float64{{0.25, -60, -0.04, 9}, {0.5, -90, -0.02, 3}, {0, 0, 1, 0}}),
		BUb: []float64{0, 0, 1},
	}
	cases := []struct {
		name string
		p    Problem
		want Status
	}{
		{"grid", grid, Optimal},
		// 60 rows over 460 columns, 15 of the rows with an artificial:
		// rows of 529 elements, so 512-wide tiles split them too, and
		// 260 pivots flush mid-solve.
		{"dense", denseLP(7, 60, 460), Optimal},
		// Phase one ends with an artificial basic at zero, and
		// driveOutArtificials pivots a structural column in for it; phase
		// two then prices from rows that pivot must have reached.
		{"drive-out", Problem{
			C:   []float64{-1, 1},
			AUb: rows([][]float64{{1, 3}}), BUb: []float64{3},
			AEq: rows([][]float64{{1, 6.1875}, {2, 3}}), BEq: []float64{2, 4},
		}, Optimal},
		// Dantzig's rule cycles; the stall window hands over to Bland.
		{"beale", beale, Optimal},
		// max x + y s.t. x - y <= 1, y - x <= 2: unbounded along x = y.
		{"unbounded", Problem{C: []float64{-1, -1}, AUb: rows([][]float64{{1, -1}, {-1, 1}}), BUb: []float64{1, 2}}, Unbounded},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := solve(c.p, 1, tileWidth, 1, 0, kernelGo)
			if err != nil || s.Status != c.want {
				t.Fatalf("eager solve: %v %v, want %v", s, err, c.want)
			}
			checkFanOut(t, c.p)
		})
	}
}

// FuzzSolveFanOut checks that no held-pivot schedule, tile width,
// fan-out or kernel moves a bit of Solve's result.
func FuzzSolveFanOut(f *testing.F) {
	// max x+y s.t. x<=2, y<=3.
	f.Add(lpBytes(2, 2, 0, -1, -1, 1, 0, 2, 0, 1, 3))
	// An equality row and a negative bound: phase one runs.
	f.Add(lpBytes(3, 2, 1, 1, 2, -1, 1, 1, 1, 4, -1, 0, 1, -1, 1, -1, 0, 1))
	// A redundant equality pair: driveOutArtificials zeroes a row.
	f.Add(lpBytes(2, 1, 2, -1, 1, 1, 1, 3, 1, 1, 2, 2, 2, 4))
	// Degenerate ties at a zero bound.
	f.Add(lpBytes(4, 4, 0, -1, -1, -1, -1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 2))
	// Infeasible: x <= -1 with x >= 0.
	f.Add(lpBytes(1, 1, 0, 1, 1, -1))
	// A driveOutArtificials pivot (the "drive-out" case above).
	f.Add(lpBytes(2, 1, 2, -1, 1, 1, 3, 3, 1, 6.1875, 2, 2, 3, 4))
	// Unbounded: max x + y s.t. x - y <= 1, y - x <= 2.
	f.Add(lpBytes(2, 2, 0, -1, -1, 1, -1, 1, -1, 1, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFanOut(t, decodeLP(data))
	})
}

// BenchmarkFlush applies 8 held pivots to a third of the rows of a
// tableau the size of the 30-ISP dataset's largest LP (524 rows, 4 946
// columns), in one loop, on each kernel this CPU can run; ns/slot is per
// element and held slot a row takes.
func BenchmarkFlush(b *testing.B) {
	const m, n = 524, 4946 - 524
	p := Problem{C: make([]float64, n)}
	for i := 0; i < m; i++ {
		p.AUb, p.BUb = append(p.AUb, Row{Idx: []int32{int32(i % n)}, Val: []float64{1}}), append(p.BUb, 1)
	}
	rng := rand.New(rand.NewSource(1))
	for _, k := range kernels() {
		b.Run(k.name, func(b *testing.B) {
			t := newTableau(p, holdPivots, tileWidth, 1, 0, k.id)
			for _, row := range append(t.a, t.slots...) {
				for j := range row {
					row[j] = rng.Float64()
				}
			}
			h := len(t.slots)
			slots := 0
			for b.Loop() {
				t.held = h
				for i := 0; i < m; i += 3 {
					for s := range h {
						if rng.Intn(4) != 0 {
							t.fac[i*h+s] = 0x1p-10 * rng.Float64()
							slots++
						}
					}
				}
				t.flush()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slots)/float64(t.cols+1), "ns/slot")
		})
	}
}
