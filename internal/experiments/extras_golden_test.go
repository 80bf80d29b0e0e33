package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// TestExtrasGolden pins the extras analyses bit for bit: the Stability,
// PreferenceRangeAblation and Scalability results on the 18-ISP dataset,
// with the bounds and fractions nexitsim's extras section uses, feed one
// sha256 over their counts and math.Float64bits, which must equal
// testdata/extras.sha256. Like TestBandwidthLPGolden it is recorded once
// and regenerated (-update) only when a change means to move these
// numbers.
func TestExtrasGolden(t *testing.T) {
	ds := smallDataset(t)
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}

	st, err := Stability(ds, BandwidthOptions{Options: Options{MaxPairs: 6}, MaxFailures: 24})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "stability %d %d %d %d\n", st.FailureCases, st.Converged, st.Oscillated, st.Exhausted)
	for i := range st.ReactiveWorst {
		put(st.ReactiveWorst[i])
		put(st.NegotiatedWorst[i])
	}

	bounds := []int{1, 2, 3, 5, 10, 20, 50}
	abl, err := PreferenceRangeAblation(ds, Options{MaxPairs: 8}, bounds)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "ablation %d\n", len(abl))
	for _, p := range bounds {
		fmt.Fprintf(h, "P=%d\n", p)
		put(abl[p])
	}

	sc, err := Scalability(ds, Options{MaxPairs: 8}, []float64{0.2, 0.4, 0.6, 0.8, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "scalability %d\n", sc.Pairs)
	for i := range sc.Fractions {
		put(sc.Fractions[i])
		put(sc.GainShare[i])
		put(sc.FlowShare[i])
	}

	got := fmt.Sprintf("%x\n", h.Sum(nil))
	t.Logf("%d stability cases, %d scalability pairs", st.FailureCases, sc.Pairs)
	const golden = "testdata/extras.sha256"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if strings.TrimSpace(string(want)) != strings.TrimSpace(got) {
		t.Fatalf("extras digest %s, golden %s: the extras output bits changed",
			strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}
