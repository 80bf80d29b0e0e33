package simplex

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b are the same float64 bit for bit,
// except that any two NaNs match: which operand's payload an x86 NaN
// result carries depends on operand order.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// kernel is one implementation of subScaled.
type kernel struct {
	name string
	fn   func(dst, src []float64, f float64)
}

// checkSubScaled runs every kernel this CPU can run and the portable
// loop on copies of dst, and fails on the first element where they
// differ.
func checkSubScaled(t *testing.T, dst, src []float64, f float64) {
	t.Helper()
	want := append([]float64(nil), dst...)
	subScaledGo(want, src, f)
	runnable, _ := kernels()
	for _, k := range runnable {
		got := append([]float64(nil), dst...)
		k.fn(got, src, f)
		for j := range got {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("%s, len %d/%d f %v: element %d is %v (%#x), portable loop gives %v (%#x)",
					k.name, len(dst), len(src), f, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}
}

// special are values whose rounding, sign or class a vector kernel could
// get wrong: signed zeros, subnormals, the extremes and the infinities.
var special = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1060,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	1 + 0x1p-52, 1.0 / 3, -2.0 / 3,
}

func TestSubScaledMatchesPortable(t *testing.T) {
	runnable, picked := kernels()
	for _, k := range runnable {
		t.Logf("checking kernel %s", k.name)
	}
	t.Logf("the probe picked %s for subScaled", picked)
	rng := rand.New(rand.NewSource(5))
	factors := append([]float64{0.1, 0.75, -1e300, 1e-300, 3}, special...)
	draw := func() float64 {
		if rng.Intn(4) == 0 {
			return special[rng.Intn(len(special))]
		}
		return (rng.Float64() - 0.5) * math.Pow(2, float64(rng.Intn(40)-20))
	}
	// Lengths 0–67 cover AVX2's 16-wide body, its 4-wide and scalar
	// tails and SSE2's 8-wide body and tail. One buffer per side, so the
	// offset-1 windows start 8 bytes off any 16- or 32-byte boundary the
	// allocator gave the buffer.
	dstBuf := make([]float64, 80)
	srcBuf := make([]float64, 80)
	for n := 0; n <= 67; n++ {
		for _, off := range []int{0, 1} {
			for _, f := range factors {
				for j := range dstBuf {
					dstBuf[j], srcBuf[j] = draw(), draw()
				}
				checkSubScaled(t, dstBuf[off:off+n], srcBuf[off:off+n], f)
				checkSubScaled(t, dstBuf[off:off+n], srcBuf[1-off:1-off+n], f)
			}
		}
	}
	// Every special against every special, at a length that uses both the
	// unrolled body and the scalar tail.
	for _, f := range factors {
		dst := make([]float64, 0, 2*len(special)*len(special))
		src := make([]float64, 0, cap(dst))
		for _, a := range special {
			for _, b := range special {
				dst, src = append(dst, a), append(src, b)
			}
		}
		checkSubScaled(t, dst, src, f)
	}
}

func TestSubScaledTouchesOnlyCommonPrefix(t *testing.T) {
	runnable, _ := kernels()
	for _, k := range runnable {
		dst := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		k.fn(dst[:9], []float64{1, 1, 1}, 1)
		want := []float64{0, 1, 2, 4, 5, 6, 7, 8, 9, 10}
		for j := range dst {
			if dst[j] != want[j] {
				t.Fatalf("%s: dst = %v, want %v", k.name, dst, want)
			}
		}
		src := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
		k.fn(dst[:2], src, 2)
		if dst[0] != -2 || dst[1] != -1 || dst[2] != 2 {
			t.Fatalf("%s: dst = %v after a 2-element update", k.name, dst)
		}
		// A 40-element row, a 37-element src: AVX2's 16-wide body twice,
		// its 4-wide tail once and its scalar tail once, then stop.
		long, ones := make([]float64, 40), make([]float64, 37)
		for j := range ones {
			ones[j] = 1
		}
		k.fn(long, ones, 1)
		for j, v := range long {
			want := 0.0
			if j < len(ones) {
				want = -1
			}
			if v != want {
				t.Fatalf("%s: element %d of a 37-element update is %v, want %v", k.name, j, v, want)
			}
		}
	}
}

// FuzzSubScaled checks every runnable kernel against the portable loop
// on arbitrary bit patterns: the input is cut into 8-byte little-endian
// words, the first is f, the rest alternate between dst and src.
func FuzzSubScaled(f *testing.F) {
	word := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(word(0.5, 1, 2))
	f.Add(word(0, math.Inf(1), 1, math.Copysign(0, -1), 0))
	f.Add(word(append([]float64{-3}, special...)...))
	f.Add(word(math.SmallestNonzeroFloat64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		k := math.Float64frombits(binary.LittleEndian.Uint64(data))
		var dst, src []float64
		for i := 8; i+8 <= len(data); i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[i:]))
			if (i/8)%2 == 1 {
				dst = append(dst, v)
			} else {
				src = append(src, v)
			}
		}
		checkSubScaled(t, dst, src, k)
	})
}
