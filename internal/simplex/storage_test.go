package simplex

import (
	"math"
	"math/rand"
	"testing"
)

// dropRegions unmaps every retained region, so the next solve maps fresh,
// zeroed storage.
func dropRegions() {
	for {
		select {
		case r := <-regions:
			r.unmap()
		default:
			return
		}
	}
}

// poisonRegions fills every retained region with NaN, so a solve that
// reads a cell of reused storage it has not written first goes wrong.
func poisonRegions() {
	for range len(regions) {
		select {
		case r := <-regions:
			f := r.floats(len(r) / 8)
			for i := range f {
				f[i] = math.NaN()
			}
			r.release()
		default:
			return
		}
	}
}

// TestColumnMatchesAt fills random tableaux, zeros of both signs
// included, holds 0–8 pivots with factor columns that are often ±0, and
// requires column to give every entry at gives: the same bits where
// either is nonzero, an equal zero where both are zero, on every kernel.
func TestColumnMatchesAt(t *testing.T) {
	const n = 37
	rng := rand.New(rand.NewSource(3))
	draw := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return (rng.Float64() - 0.5) * math.Pow(2, float64(rng.Intn(20)-10))
	}
	for _, k := range kernels() {
		for m := 1; m <= 40; m += 13 {
			p := Problem{C: make([]float64, n)}
			for i := 0; i < m; i++ {
				p.AUb, p.BUb = append(p.AUb, Row{}), append(p.BUb, 1)
			}
			for held := 0; held <= holdPivots; held++ {
				tb := newTableau(p, holdPivots, tileWidth, 1, 0, k.id)
				for _, row := range append(tb.a, tb.slots...) {
					for j := range row {
						row[j] = draw()
					}
				}
				for i := range tb.fac[:held*m] {
					tb.fac[i] = draw()
				}
				tb.held = held
				for j := 0; j <= tb.cols; j++ {
					for i, got := range tb.column(j) {
						want := tb.at(i, j)
						if (got != 0 || want != 0) && math.Float64bits(got) != math.Float64bits(want) || got != want {
							t.Fatalf("%s, %d rows, %d held: column(%d)[%d] = %v (%#x), at gives %v (%#x)",
								k.name, m, held, j, i, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
				tb.region.release()
			}
		}
	}
}

// BenchmarkColumn computes entering columns of a tableau the size of the
// 30-ISP dataset's largest LP (524 rows, 4 946 columns) with 8 pivots
// held and a quarter of the factors zero, on each kernel this CPU can
// run; ns/row is per row of a column.
func BenchmarkColumn(b *testing.B) {
	const m, n = 524, 4946 - 524
	p := Problem{C: make([]float64, n)}
	for i := 0; i < m; i++ {
		p.AUb, p.BUb = append(p.AUb, Row{Idx: []int32{int32(i % n)}, Val: []float64{1}}), append(p.BUb, 1)
	}
	rng := rand.New(rand.NewSource(1))
	for _, k := range kernels() {
		b.Run(k.name, func(b *testing.B) {
			t := newTableau(p, holdPivots, tileWidth, 1, 0, k.id)
			defer t.region.release()
			for _, row := range append(t.a, t.slots...) {
				for j := range row {
					row[j] = rng.Float64()
				}
			}
			for i := range t.fac {
				if rng.Intn(4) != 0 {
					t.fac[i] = rng.Float64()
				}
			}
			t.held = holdPivots
			cols := 0
			for b.Loop() {
				t.column(rng.Intn(t.cols + 1))
				cols++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cols)/m, "ns/row")
		})
	}
}
