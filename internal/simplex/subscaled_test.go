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

// kernel is one implementation of subScaledMulti.
type kernel struct {
	name string
	id   kernelID
}

// kernelName names the kernel with the given id.
func kernelName(id kernelID) string {
	for _, k := range kernels() {
		if k.id == id {
			return k.name
		}
	}
	return "unknown"
}

// checkSubScaled runs every kernel this CPU can run and the portable
// loop on copies of dst, and fails on the first element where they
// differ, including any past the common length, which must stay as
// they were.
func checkSubScaled(t *testing.T, dst []float64, srcs [][]float64, fs []float64) {
	t.Helper()
	want := append([]float64(nil), dst...)
	subScaledGo(want, srcs, fs)
	for _, k := range kernels() {
		got := append([]float64(nil), dst...)
		subScaledMulti(k.id, got, srcs, fs)
		for j := range got {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("%s, len %d, %d sources, factors %v: element %d is %v (%#x), portable loop gives %v (%#x)",
					k.name, len(dst), len(srcs), fs, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
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
	for _, k := range kernels() {
		t.Logf("checking kernel %s", k.name)
	}
	t.Logf("the probe picked %s for Solve", kernelName(picked))
	rng := rand.New(rand.NewSource(5))
	factors := append([]float64{0.1, 0.75, -1e300, 1e-300, 3}, special...)
	draw := func() float64 {
		if rng.Intn(4) == 0 {
			return special[rng.Intn(len(special))]
		}
		return (rng.Float64() - 0.5) * math.Pow(2, float64(rng.Intn(40)-20))
	}
	fill := func(buf []float64) {
		for j := range buf {
			buf[j] = draw()
		}
	}
	// 1–8 sources over lengths 0–100 cross AVX-512's 32- and 8-wide
	// blocks and every masked tail, and AVX2's 16- and 4-wide blocks and
	// every scalar tail. Each buffer is read from offset 0 or 1, so a
	// window starts 8 bytes off any 16-, 32- or 64-byte boundary the
	// allocator gave it, and each source runs up to 9 elements past dst.
	dstBuf := make([]float64, 112)
	srcBufs := make([][]float64, 8)
	for s := range srcBufs {
		srcBufs[s] = make([]float64, 112)
	}
	for k := 1; k <= 8; k++ {
		for n := 0; n <= 100; n++ {
			for draws := 0; draws < 4; draws++ {
				fill(dstBuf)
				off := draws % 2
				srcs := make([][]float64, k)
				fs := make([]float64, k)
				for s := range srcs {
					fill(srcBufs[s])
					so := rng.Intn(2)
					srcs[s] = srcBufs[s][so : so+n+rng.Intn(10)]
					fs[s] = factors[rng.Intn(len(factors))]
				}
				checkSubScaled(t, dstBuf[off:off+n], srcs, fs)
			}
		}
	}
	// Every special against every special, at lengths that use the
	// unrolled bodies and the tails: one source with each factor, and
	// two sources with each pair of factors the special values make.
	var dst, src []float64
	for _, a := range special {
		for _, b := range special {
			dst, src = append(dst, a), append(src, b)
		}
	}
	for _, f := range factors {
		checkSubScaled(t, dst, [][]float64{src}, []float64{f})
	}
	var dst2, src0, src1 []float64
	for _, a := range special {
		for _, b := range special {
			for _, c := range special {
				dst2, src0, src1 = append(dst2, a), append(src0, b), append(src1, c)
			}
		}
	}
	for _, f0 := range special {
		for _, f1 := range special {
			checkSubScaled(t, dst2, [][]float64{src0, src1}, []float64{f0, f1})
		}
	}
}

func TestSubScaledTouchesOnlyCommonPrefix(t *testing.T) {
	ones := func(n int) []float64 {
		v := make([]float64, n)
		for j := range v {
			v[j] = 1
		}
		return v
	}
	for _, k := range kernels() {
		dst := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		subScaledMulti(k.id, dst[:9], [][]float64{ones(3)}, []float64{1})
		want := []float64{0, 1, 2, 4, 5, 6, 7, 8, 9, 10}
		for j := range dst {
			if dst[j] != want[j] {
				t.Fatalf("%s: dst = %v, want %v", k.name, dst, want)
			}
		}
		// The shortest source sets the length; factors past the last
		// source are not read.
		subScaledMulti(k.id, dst[:4], [][]float64{ones(10), ones(2)}, []float64{2, 1, 100})
		if dst[0] != -3 || dst[1] != -2 || dst[2] != 2 || dst[3] != 4 {
			t.Fatalf("%s: dst = %v after a 2-element update", k.name, dst)
		}
		// No source: nothing changes.
		subScaledMulti(k.id, dst, nil, nil)
		if dst[0] != -3 || dst[9] != 10 {
			t.Fatalf("%s: dst = %v after an update with no source", k.name, dst)
		}
		// An 80-element row, sources of 79 and 77: AVX-512's 32-wide body
		// twice, its 8-wide block once and a 5-lane masked tail; AVX2's
		// 16-wide body four times, its 4-wide block three times and one
		// scalar element; then stop.
		long := make([]float64, 80)
		subScaledMulti(k.id, long, [][]float64{ones(79), ones(77)}, []float64{1, 1})
		for j, v := range long {
			want := 0.0
			if j < 77 {
				want = -2
			}
			if v != want {
				t.Fatalf("%s: element %d of a 77-element update is %v, want %v", k.name, j, v, want)
			}
		}
	}
}

// FuzzSubScaled checks every runnable kernel against the portable loop
// on arbitrary bit patterns: the first byte gives 1–8 sources, the rest
// is cut into 8-byte little-endian words, the first one factor per
// source, the rest dealt in turn to dst and each source.
func FuzzSubScaled(f *testing.F) {
	input := func(k int, vs ...float64) []byte {
		b := []byte{byte(k - 1)}
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(input(1, 0.5, 1, 2))
	f.Add(input(1, 0, math.Inf(1), 1, math.Copysign(0, -1), 0))
	f.Add(input(1, append([]float64{-3}, special...)...))
	f.Add(input(2, append([]float64{math.Inf(1), -0.5}, special...)...))
	f.Add(input(3, math.SmallestNonzeroFloat64, 2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18))
	f.Add(input(8, 1, 2, 3, 4, 5, 6, 7, 8, 0.5, 0.25, 1, 1, 1, 1, 1, 1, 1, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%8
		var words []float64
		for i := 1; i+8 <= len(data); i += 8 {
			words = append(words, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		if len(words) < k {
			return
		}
		fs, words := words[:k], words[k:]
		var dst []float64
		srcs := make([][]float64, k)
		for i, v := range words {
			if s := i % (k + 1); s == 0 {
				dst = append(dst, v)
			} else {
				srcs[s-1] = append(srcs[s-1], v)
			}
		}
		checkSubScaled(t, dst, srcs, fs)
	})
}
