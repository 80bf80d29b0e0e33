package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// comparable says whether a ratio between two results means anything:
// same machine and toolchain, same workload bytes, same sizing. The
// commit is what may differ.
func comparable(a, b *result) error {
	ea, eb := a.Env, b.Env
	ea.Commit, eb.Commit = "", ""
	switch {
	case ea != eb:
		return fmt.Errorf("environments differ: %+v vs %+v", ea, eb)
	case a.Digest != b.Digest:
		return fmt.Errorf("workload digests differ: %s vs %s", a.Digest, b.Digest)
	case a.Seed != b.Seed || a.Scale != b.Scale:
		return errors.New("seed or scale differ")
	}
	return nil
}

func loadDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := new(document)
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// compareFiles prints b over a for every metric both documents hold,
// with its base — but only between results that are comparable.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadDocument(pathA)
	if err != nil {
		return err
	}
	b, err := loadDocument(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintf(tw, "base %s = commit %s, other %s = commit %s\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	for _, ra := range a.Results {
		var rb *result
		for _, r := range b.Results {
			if r.Workload == ra.Workload && r.Traced == ra.Traced {
				rb = r
			}
		}
		if rb == nil {
			continue
		}
		kind := "end-to-end"
		if ra.Traced {
			kind = "per-layer"
		}
		if err := comparable(ra, rb); err != nil {
			fmt.Fprintf(tw, "%s %s\tnot comparable: %v\n", ra.Workload, kind, err)
			continue
		}
		for _, ma := range ra.Metrics {
			for _, mb := range rb.Metrics {
				if mb.Name != ma.Name {
					continue
				}
				ratio := math.NaN()
				if ma.Value != 0 {
					ratio = mb.Value / ma.Value
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g / %.4g %s\t= %.3f of base\n", ra.Workload, ma.Name, ma.As, mb.Value, ma.Value, ma.Unit, ratio)
			}
		}
	}
	return nil
}

// runAA runs two complete sets of untraced runs on this build — each
// workload `runs` times per set, set A and set B alternating, run r of
// both sets with seed c.Seed+r — and holds each end-to-end metric's two
// medians, and each set's own spread, to the metric's bound.
func runAA(c *config, short bool, runs int) error {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tas\tmedian A [q1 q3]\tmedian B [q1 q3]\tspread A\tspread B\tgap\tbound\t")
	ok := true
	for _, w := range workloads {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		as := map[string]string{}
		for r := 0; r < runs; r++ {
			rc := *c
			rc.Seed = c.Seed + int64(r)
			for k := 0; k < 2; k++ {
				set := (r + k) % 2 // alternate which set runs first
				fmt.Fprintf(os.Stderr, "bench: -aa %s run %d set %c\n", w.name, r, 'A'+set)
				res, err := spawn(w, &rc, short, false)
				if err != nil {
					return err
				}
				if !res.correct() {
					return fmt.Errorf("%s: %v", w.name, res.Errors)
				}
				for _, m := range res.Metrics {
					sets[set][m.Name] = append(sets[set][m.Name], m.Value)
					as[m.Name] = m.As
				}
			}
		}
		for _, d := range endToEnd {
			a := summarize(d.Name, d.Unit, sets[0][d.Name], 0.5)
			b := summarize(d.Name, d.Unit, sets[1][d.Name], 0.5)
			gap := (b.Value - a.Value) / a.Value
			spreadA, spreadB := (a.Q3-a.Q1)/a.Value, (b.Q3-b.Q1)/b.Value
			verdict := ""
			// The contract holds set-up time to its bound between medians
			// only; every other metric's spread must fit as well.
			if math.Abs(gap) > d.Bound || (d.Name != "setup_s" && math.Max(spreadA, spreadB) > d.Bound) {
				verdict = "OUTSIDE"
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g %.4g]\t%.4g [%.4g %.4g]\t%.3f\t%.3f\t%+.3f\t%.2f\t%s\n",
				w.name, d.Name, as[d.Name], a.Value, a.Q1, a.Q3, b.Value, b.Q1, b.Q3, spreadA, spreadB, gap, d.Bound, verdict)
		}
	}
	tw.Flush()
	if !ok {
		return errors.New("two sets of the same build disagree by more than a bound")
	}
	return nil
}
