package experiments

import (
	"testing"

	"repro/internal/stats"
)

func TestDestinationBased(t *testing.T) {
	ds := smallDataset(t)
	rs := streamRecords(t, func(sink func(int, *DestinationPairResult) error) error {
		return DestinationStream(ds, Options{MaxPairs: 16}, sink)
	})
	src := stats.NewCDF(column(rs, func(r *DestinationPairResult) float64 { return r.GainSrcDst }))
	dst := stats.NewCDF(column(rs, func(r *DestinationPairResult) float64 { return r.GainDstOnly }))
	// The paper's footnote 2: destination-based results are "similar".
	// Grouping constrains the solution space, so some gain is lost, but
	// most should survive: destination-based keeps at least a third of
	// the source-destination median and never goes negative in median.
	if dst.Median() < 0 {
		t.Errorf("destination-based median gain %.2f%% negative", dst.Median())
	}
	if src.Median() > 1 && dst.Median() < 0.33*src.Median() {
		t.Errorf("destination-based median %.2f%% far below source-destination %.2f%%",
			dst.Median(), src.Median())
	}
	t.Logf("src-dst median %.2f%%, dst-only median %.2f%%", src.Median(), dst.Median())
}
