package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/capacity"
	"repro/internal/gen"
	"repro/internal/optimal"
	"repro/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from the current code")

// lpGoldenPairs is the fixed slice of the 30-ISP dataset's bandwidth
// pairs whose failure cases TestBandwidthLPGolden solves.
const lpGoldenPairs = 27

// TestBandwidthLPGolden pins the bandwidth LP bit for bit: for every
// failure case of the first lpGoldenPairs bandwidth pairs of the 30-ISP
// default dataset, the math.Float64bits of MEL, MELUp, MELDown and every
// Fractions entry feed one sha256, which must equal
// testdata/bandwidth_lp.sha256. A solver change that lands on another
// vertex, or rounds one pivot differently, moves the digest; regenerate
// it (-update) only together with a bench/golden.json re-pin.
func TestBandwidthLPGolden(t *testing.T) {
	cfg := gen.DefaultConfig()
	cfg.NumISPs = 30
	ds, err := Load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := ds.BandwidthPairs()
	if len(pairs) < lpGoldenPairs {
		t.Fatalf("%d bandwidth pairs, want at least %d", len(pairs), lpGoldenPairs)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	cases := 0
	for i, pair := range pairs[:lpGoldenPairs] {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		for k := 0; k < pair.NumInterconnections(); k++ {
			fc := buildFailureCase(pair, ds.Cache, k, traffic.Gravity, capacity.Options{}, rng)
			if fc == nil {
				continue
			}
			lp, err := optimal.Bandwidth(fc.s2, fc.impacted, fc.fixedUp, fc.fixedDown, fc.capUp, fc.capDown)
			if err != nil {
				t.Fatalf("pair %d case %d: %v", i, k, err)
			}
			fmt.Fprintf(h, "pair %d case %d flows %d\n", i, k, len(fc.impacted))
			put(lp.MEL)
			put(lp.MELUp)
			put(lp.MELDown)
			for _, fr := range lp.Fractions {
				for _, x := range fr {
					put(x)
				}
			}
			cases++
		}
	}
	got := fmt.Sprintf("%x\n", h.Sum(nil))
	t.Logf("%d failure cases over %d pairs", cases, lpGoldenPairs)
	const golden = "testdata/bandwidth_lp.sha256"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("bandwidth LP digest %s, golden %s: the LP's output bits changed",
			strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}
