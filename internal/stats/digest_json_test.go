package stats

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// The digest wire form and summary line are hashed into the benchmark's
// output_sha256, so neither may move by a byte: below, at and past the
// sketch capacity, on smooth samples and on Figure 6-shaped ties (four
// in five samples exactly 0), compacted sketches included.
func TestDigestWireGolden(t *testing.T) {
	h := sha256.New()
	for _, n := range []int{0, 1, 300, 4096, 4097, 60000} {
		for _, ties := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(n) + 31))
			d := NewDigest()
			for i := 0; i < n; i++ {
				x := rng.NormFloat64() * 7
				if ties {
					x = 0
					if rng.Float64() >= 0.8 {
						x = rng.ExpFloat64() * 10
					}
				}
				d.Add(x)
			}
			raw, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s\n%s\n", raw, d.Summary())
		}
	}
	const want = "8b797dba5298b5f7930b1ae40bd370d5d0fe00455d07a1b96140ae8b1e9742b3"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("digest wire form and summary lines hash to %s, want %s", got, want)
	}
}

// A Stream's wire form carries its state exactly: encoding/json writes
// the shortest float64 representation, so every field reads back bit
// for bit.
func TestStreamJSONRoundTrip(t *testing.T) {
	var s Stream
	for _, x := range []float64{0.1, -3.75, 1e17, 2.000000000000004} {
		s.Add(x)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back streamJSON
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if got := (Stream{n: back.N, sum: back.Sum, min: back.Min, max: back.Max}); got != s {
		t.Fatalf("round trip = %+v, want %+v", got, s)
	}
}

// The zero Digest has no sketch yet: it marshals without one, and is
// usable as it stands.
func TestDigestJSONNilSketch(t *testing.T) {
	var d Digest
	raw, err := json.Marshal(&d)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"stream":{"n":0,"sum":0,"min":0,"max":0}}`; string(raw) != want {
		t.Fatalf("zero digest marshals to %s, want %s", raw, want)
	}
	d.Add(1)
	if d.Stream.N() != 1 || d.Sketch.n != 1 {
		t.Fatalf("zero digest unusable after Add: %+v", d)
	}
}
