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

// TestExtrasGolden pins the extras analyses bit for bit: the stability
// outcomes, the preference-range ablation's medians and the scalability
// sweep's medians on the 18-ISP dataset, with the bounds and fractions
// nexitsim's extras sections use, feed one sha256 over their counts and
// math.Float64bits, which must equal testdata/extras.sha256. Like
// TestBandwidthLPGolden it is recorded once and regenerated (-update)
// only when a change means to move these numbers.
func TestExtrasGolden(t *testing.T) {
	ds := smallDataset(t)
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}

	cases := streamRecords(t, func(sink func(int, *StabilityCaseResult) error) error {
		_, err := StabilityStream(ds, BandwidthOptions{Options: Options{MaxPairs: 6}, MaxFailures: 24}, sink)
		return err
	})
	converged, oscillated, exhausted := outcomeCounts(cases)
	fmt.Fprintf(h, "stability %d %d %d %d\n", len(cases), converged, oscillated, exhausted)
	for _, c := range cases {
		put(c.ReactiveWorst)
		put(c.NegotiatedWorst)
	}

	bounds := []int{1, 2, 3, 5, 10, 20, 50}
	abl := streamRecords(t, func(sink func(int, *AblationPairResult) error) error {
		return AblationStream(ds, Options{MaxPairs: 8}, bounds, sink)
	})
	fmt.Fprintf(h, "ablation %d\n", len(bounds))
	for i, p := range bounds {
		fmt.Fprintf(h, "P=%d\n", p)
		put(upperMedian(column(abl, func(r *AblationPairResult) float64 { return r.GainNeg[i] })))
	}

	fractions := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	sc := streamRecords(t, func(sink func(int, *ScalabilityPairResult) error) error {
		return ScalabilityStream(ds, Options{MaxPairs: 8}, fractions, sink)
	})
	fmt.Fprintf(h, "scalability %d\n", len(sc))
	for i, f := range fractions {
		put(f)
		put(median(column(sc, func(r *ScalabilityPairResult) float64 { return r.GainShares[i] })))
		put(median(column(sc, func(r *ScalabilityPairResult) float64 { return r.FlowShares[i] })))
	}

	got := fmt.Sprintf("%x\n", h.Sum(nil))
	t.Logf("%d stability cases, %d scalability pairs", len(cases), len(sc))
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
