package stats_test

import (
	"fmt"

	"repro/internal/stats"
)

// Example builds a CDF over per-pair gains and reads it the way the
// paper's figures are read.
func Example() {
	gains := []float64{0.5, 2, 3.5, 4, 4.5, 6, 8, 11, 14, 21}
	c := stats.NewCDF(gains)
	fmt.Printf("median gain: %.1f%%\n", c.Median())
	fmt.Printf("pairs gaining at most 5%%: %.0f%%\n", 100*c.At(5))
	fmt.Printf("pairs gaining more than 10%%: %.0f%%\n", 100*(1-c.At(10)))
	// Output:
	// median gain: 4.5%
	// pairs gaining at most 5%: 50%
	// pairs gaining more than 10%: 30%
}
