package topology

import (
	"strings"
	"testing"
)

// FuzzTopologyRead holds the .topo reader to a canonical oracle: for
// every input x that Read accepts, b := Write(Read(x)) must read back,
// and Write(Read(b)) must equal b byte for byte. Read validates every
// ISP, so Write must never emit a topology Validate refuses.
func FuzzTopologyRead(f *testing.F) {
	f.Add(writeTopo(f, []*ISP{testISP("backbone one"), testISP("b")}))
	f.Add("# a comment\nisp test 1\npop 0 city_a 10.0 20.0 100\nend\n")
	f.Add("isp x 1\npop 0 a 1 1 NaN\npop 1 b 2 2 5\nlink 0 1 NaN Inf\nend\n")
	f.Add("isp x +7\npop 00 a -0.00000049 1e-9 2.5\npop 1 b 89.9999999 180 1e300\nlink 0 1 -0 123456789.1234567\nend\n")
	f.Fuzz(func(t *testing.T, x string) {
		// Write may lengthen a line (it prints every float in full), and
		// Read refuses lines over 1 MiB; stay well below that.
		if len(x) > 1<<16 {
			return
		}
		isps, err := Read(strings.NewReader(x))
		if err != nil {
			return
		}
		b := writeTopo(t, isps)
		again, err := Read(strings.NewReader(b))
		if err != nil {
			t.Fatalf("Write(Read(x)) does not read back: %v\n%s", err, b)
		}
		if b2 := writeTopo(t, again); b2 != b {
			t.Fatalf("Write(Read(b)) != b:\n%s\nre-written as\n%s", b, b2)
		}
	})
}

func writeTopo(tb testing.TB, isps []*ISP) string {
	var sb strings.Builder
	if err := Write(&sb, isps); err != nil {
		tb.Fatal(err)
	}
	return sb.String()
}
