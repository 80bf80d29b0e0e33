package simplex_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/optimal"
	"repro/internal/simplex"
)

// initProcs is GOMAXPROCS as the package saw it at init, before -cpu
// changes it: the size of the tableau free list.
var initProcs = runtime.GOMAXPROCS(0)

// TestSolveReusesStorage solves the 30-ISP dataset's largest failure-case
// LP, then a small one, then the largest again, then both in turn, three
// times each, on GOMAXPROCS goroutines at once, each solve on whatever
// storage the free list hands it, and requires every output bit to equal
// a solve on fresh storage.
// The free list never holds more than GOMAXPROCS regions.
func TestSolveReusesStorage(t *testing.T) {
	if simplex.RegionLimit() > 0 {
		t.Logf("tableau storage: anonymous mappings, at most %d retained", simplex.RegionLimit())
	} else {
		t.Log("tableau storage: the Go heap, fresh per solve")
	}
	cases := failureCases30(t)
	big := cases[0]
	small := cases[len(cases)/2]
	solve := func(c *lpCase) ([]uint64, error) {
		r, err := optimal.Bandwidth(c.s, c.flows, c.fixedUp, c.fixedDown, c.capUp, c.capDown)
		if err != nil {
			return nil, fmt.Errorf("%s, %d columns: %v", c.name, c.columns(), err)
		}
		return bits(r), nil
	}
	checkRetained := func(when string) {
		t.Helper()
		if n, limit := simplex.RetainedRegions(), simplex.RegionLimit(); n > limit || limit > initProcs {
			t.Fatalf("%s: %d regions retained, limit %d, GOMAXPROCS %d", when, n, limit, initProcs)
		}
	}
	want := map[*lpCase][]uint64{}
	for _, c := range []*lpCase{big, small} {
		simplex.DropRegions()
		b, err := solve(c)
		if err != nil {
			t.Fatal(err)
		}
		want[c] = b
		t.Logf("%s: %d columns", c.name, c.columns())
	}
	simplex.DropRegions()
	for i, c := range []*lpCase{big, small, big} {
		got, err := solve(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[c]) {
			t.Fatalf("solve %d, %s on reused storage: output bits differ from fresh storage", i, c.name)
		}
		checkRetained(fmt.Sprintf("after solve %d", i))
	}
	if simplex.RegionLimit() > 0 && simplex.RetainedRegions() == 0 {
		t.Fatal("no region retained: the solves did not reuse storage")
	}
	procs := runtime.GOMAXPROCS(0)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for g := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			order := []*lpCase{big, small, big, small, big, small}
			if g%2 == 1 {
				order = order[1:]
			}
			for _, c := range order {
				got, err := solve(c)
				if err == nil && !reflect.DeepEqual(got, want[c]) {
					err = fmt.Errorf("goroutine %d, %s on reused storage: output bits differ from fresh storage", g, c.name)
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	checkRetained(fmt.Sprintf("after %d concurrent goroutines", procs))
}
