package simplex

import (
	"math"
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

// checkFanOut solves p with every pivot's row updates in one loop and
// split into 2, 3 and 4 runs, and fails unless the outcomes agree bit
// for bit.
func checkFanOut(t *testing.T, p Problem) {
	t.Helper()
	want, wantErr := solve(p, 1, 0)
	for parts := 2; parts <= 4; parts++ {
		got, err := solve(p, parts, 0)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%d parts: error %v, one loop %v", parts, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got.Status != want.Status || !sameBits(got.Objective, want.Objective) || len(got.X) != len(want.X) {
			t.Fatalf("%d parts: %v objective %v, one loop %v objective %v",
				parts, got.Status, got.Objective, want.Status, want.Objective)
		}
		for j := range got.X {
			if !sameBits(got.X[j], want.X[j]) {
				t.Fatalf("%d parts: x[%d] = %v, one loop %v", parts, j, got.X[j], want.X[j])
			}
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

func TestSolveFanOutMatchesOneLoop(t *testing.T) {
	// A 40x60 LP with a dense mix of rows takes enough pivots, each
	// touching enough rows, to exercise every split.
	const n, m = 60, 40
	p := Problem{C: make([]float64, n)}
	for j := range p.C {
		p.C[j] = -float64(1 + (j*7)%5)
	}
	for i := 0; i < m; i++ {
		var r Row
		for j := 0; j < n; j++ {
			if (i+j)%3 != 0 {
				r.Idx = append(r.Idx, int32(j))
				r.Val = append(r.Val, float64(1+(i*j)%7)/4)
			}
		}
		p.AUb, p.BUb = append(p.AUb, r), append(p.BUb, float64(10+i%9))
	}
	checkFanOut(t, p)
	if s, err := solve(p, 1, 0); err != nil || s.Status != Optimal {
		t.Fatalf("reference solve: %v %v", s, err)
	}
}

// FuzzSolveFanOut checks that splitting a pivot's row updates across
// goroutines never moves a bit of Solve's result.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFanOut(t, decodeLP(data))
	})
}
