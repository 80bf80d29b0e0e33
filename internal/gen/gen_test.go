package gen

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/topology"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumISPs = 0
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted zero ISPs")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumISPs = 10
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sa, sb strings.Builder
	if err := topology.Write(&sa, a); err != nil {
		t.Fatal(err)
	}
	if err := topology.Write(&sb, b); err != nil {
		t.Fatal(err)
	}
	if sa.String() != sb.String() {
		t.Error("same seed produced different datasets")
	}
	cfg.Seed = 2
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sc strings.Builder
	if err := topology.Write(&sc, c); err != nil {
		t.Fatal(err)
	}
	if sa.String() == sc.String() {
		t.Error("different seeds produced identical datasets")
	}
}

// TestGenerateParallelParity pins the format-v2 contract: the dataset is
// byte-identical at every worker count, because each ISP draws from a
// private (Seed, index)-keyed stream and never observes scheduling.
func TestGenerateParallelParity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumISPs = 40
	want, err := GenerateWorkers(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		got, err := GenerateWorkers(cfg, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d produced a different dataset than workers=1", workers)
		}
	}
}

// TestGenerateISPPure pins that generateISP is a pure function of
// (Config, index): regenerating any single ISP in isolation reproduces
// the one Generate built, for both the mesh and the backbone branch.
func TestGenerateISPPure(t *testing.T) {
	cfg := DefaultConfig()
	isps, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meshChecked, backboneChecked := false, false
	for i, isp := range isps {
		if isp.IsMesh() {
			meshChecked = true
		} else {
			backboneChecked = true
		}
		if solo := newTables(cfg).generateISP(i); !reflect.DeepEqual(isp, solo) {
			t.Errorf("isp %d: isolated regeneration differs from Generate", i)
		}
	}
	if !meshChecked || !backboneChecked {
		t.Errorf("dataset exercised mesh=%v backbone=%v; want both branches", meshChecked, backboneChecked)
	}
}

// TestGoldenV2 pins the v2 dataset bytes per ISP. A diff here means the
// dataset format changed: if that is intentional, regenerate with
//
//	go test ./internal/gen -run TestGoldenV2 -update
//
// and say so in the commit (v1 seeds are already not reproducible after
// the v2 bump; see the package comment).
func TestGoldenV2(t *testing.T) {
	isps, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, isp := range isps {
		var buf strings.Builder
		if err := topology.Write(&buf, []*topology.ISP{isp}); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %x\n", isp.Name, sha256.Sum256([]byte(buf.String())))
	}
	path := filepath.Join("testdata", "v2_digests.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 {
			want[fields[0]] = fields[1]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(isps) {
		t.Fatalf("golden has %d ISPs, dataset has %d (run with -update?)", len(want), len(isps))
	}
	for _, line := range strings.Split(strings.TrimSpace(got.String()), "\n") {
		fields := strings.Fields(line)
		if w := want[fields[0]]; w != fields[1] {
			t.Errorf("%s: digest %s, golden %s", fields[0], fields[1], w)
		}
	}
}

func TestGenerateAllValid(t *testing.T) {
	isps, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(isps) != 65 {
		t.Fatalf("generated %d ISPs, want 65", len(isps))
	}
	meshes := 0
	for _, isp := range isps {
		if err := isp.Validate(); err != nil {
			t.Errorf("%s: %v", isp.Name, err)
		}
		if n := isp.NumPoPs(); n < minPoPs || n > maxPoPs+globalSizeBoost {
			t.Errorf("%s: %d PoPs outside [%d,%d+%d]", isp.Name, n, minPoPs, maxPoPs, globalSizeBoost)
		}
		if isp.IsMesh() {
			meshes++
		}
	}
	if meshes == 0 {
		t.Error("expected some mesh ISPs in the dataset")
	}
	if meshes > len(isps)/2 {
		t.Errorf("too many mesh ISPs: %d", meshes)
	}
}

// TestGenerateLargeUniverse checks the scale the format bump exists for:
// every ISP of a 512-ISP universe still satisfies the full Validate
// invariant set, and names/ASNs stay unique. At 1024 ISPs it pins a
// digest of the universe's .topo bytes and of its distance (>= 2) and
// bandwidth (>= 3) pair lists, so the hub walk, the population powers
// and the pair enumeration are held byte for byte at scale.
func TestGenerateLargeUniverse(t *testing.T) {
	if testing.Short() {
		t.Skip("large universe in -short mode")
	}
	cfg := DefaultConfig()
	cfg.NumISPs = 512
	isps, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, isp := range isps {
		if err := isp.Validate(); err != nil {
			t.Errorf("%s: %v", isp.Name, err)
		}
		if names[isp.Name] {
			t.Errorf("duplicate ISP name %q", isp.Name)
		}
		names[isp.Name] = true
	}
	d := topology.AllPairs(isps, 2, true)
	if len(d) < 500 {
		t.Errorf("512-ISP universe has only %d eligible pairs; want >=500", len(d))
	}

	cfg.NumISPs = 1024
	if isps, err = Generate(cfg); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := topology.Write(h, isps); err != nil {
		t.Fatal(err)
	}
	for _, min := range []int{2, 3} {
		for _, p := range topology.AllPairs(isps, min, true) {
			fmt.Fprintf(h, "%s %s\n", p.A.Name, p.B.Name)
			for _, ix := range p.Interconnections {
				fmt.Fprintf(h, "%d %d %q %x\n", ix.APoP, ix.BPoP, ix.City, math.Float64bits(ix.LengthKm))
			}
		}
	}
	const want = "6361d567da635cd5d7cc240eb0d24b5c8359160efb21386a9fe2b11e52617c58"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("1024-ISP universe digest %s, want %s", got, want)
	}
}

func TestDatasetHasUsablePairs(t *testing.T) {
	// The experiments need: ISP pairs with >=2 interconnections
	// (distance, paper had 229) and pairs with >=3 (bandwidth, paper had
	// 247 failure cases). The synthetic dataset must produce the same
	// order of magnitude.
	isps, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := topology.AllPairs(isps, 2, true)
	if len(d) < 100 {
		t.Errorf("only %d pairs with >=2 interconnections; want >=100", len(d))
	}
	b := topology.AllPairs(isps, 3, true)
	failures := 0
	for _, p := range b {
		failures += p.NumInterconnections()
	}
	if failures < 100 {
		t.Errorf("only %d failure cases for bandwidth experiments; want >=100", failures)
	}
	t.Logf("dataset: %d distance pairs, %d bandwidth pairs, %d failure cases", len(d), len(b), failures)
}

func TestCitiesTable(t *testing.T) {
	cities := worldCities
	if len(cities) < 120 {
		t.Fatalf("city table has %d entries, want >=120", len(cities))
	}
	seen := map[string]bool{}
	for _, c := range cities {
		if c.Name == "" {
			t.Error("city with empty name")
		}
		if seen[c.Name] {
			t.Errorf("duplicate city %q", c.Name)
		}
		seen[c.Name] = true
		if !c.Loc.Valid() {
			t.Errorf("%s: invalid location %v", c.Name, c.Loc)
		}
		if c.Population <= 0 {
			t.Errorf("%s: non-positive population", c.Name)
		}
		if c.Region < 0 || c.Region >= numRegions {
			t.Errorf("%s: bad region %d", c.Name, c.Region)
		}
	}
}

// TestSamplePoPsRegionWidening covers the small-region fallback: when the
// home region plus its out-of-region draws has fewer cities than
// requested, the pool widens to the whole table and still yields n
// distinct cities.
func TestSamplePoPsRegionWidening(t *testing.T) {
	// Replay samplePoPs' pool draws on the same seed to size the pool
	// it will build: Oceania plus the seeded out-of-region cities.
	const seed = 7
	rng := rand.New(rand.NewSource(seed))
	pool := 0
	for _, c := range worldCities {
		if c.Region == Oceania || rng.Float64() < outOfRegionProb {
			pool++
		}
	}
	n := pool + 10
	rng = rand.New(rand.NewSource(seed))
	got := newTables(DefaultConfig()).samplePoPs(rng, Oceania, false, n)
	if len(got) != n {
		t.Fatalf("widened draw returned %d cities, want %d", len(got), n)
	}
	seen := map[string]bool{}
	for _, k := range got {
		if c := worldCities[k]; seen[c.Name] {
			t.Errorf("duplicate city %q", c.Name)
		}
		seen[worldCities[k].Name] = true
	}
}

// TestSamplePoPsExhaustionClamp is the regression test for the historical
// weightedDraw panic: asking for more PoPs than the pool holds must clamp
// to the pool instead of running the without-replacement draw dry.
func TestSamplePoPsExhaustionClamp(t *testing.T) {
	cfg := DefaultConfig()
	world := len(worldCities)
	rng := rand.New(rand.NewSource(11))
	got := newTables(cfg).samplePoPs(rng, NorthAmerica, true, world+50)
	if len(got) != world {
		t.Fatalf("exhausting draw returned %d cities, want clamp to %d", len(got), world)
	}
	seen := map[string]bool{}
	for _, k := range got {
		if c := worldCities[k]; seen[c.Name] {
			t.Errorf("duplicate city %q", c.Name)
		}
		seen[worldCities[k].Name] = true
	}
}

// hubWeightsByStableSort is the hub selection hubWeights replaced, kept
// as its oracle: a stable population sort of the pool itself, whose
// first count members keep their weights.
func hubWeightsByStableSort(pool []City, weights []float64, count int) []float64 {
	hw := make([]float64, len(pool))
	if count <= 0 {
		return hw
	}
	if count > len(pool) {
		count = len(pool)
	}
	order := make([]int, len(pool))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return pool[order[a]].Population > pool[order[b]].Population
	})
	for _, i := range order[:count] {
		hw[i] = weights[i]
	}
	return hw
}

// TestHubWeightsMatchesStableSort checks the population-order walk
// against the per-pool stable sort on random region pools, on the
// widened full table, at hub counts of 0, hubCount and beyond the pool,
// and on a table with tied populations (ties must break by table
// order, as the stable sort breaks them by pool order).
func TestHubWeightsMatchesStableSort(t *testing.T) {
	check := func(label string, tb *tables, pool []int, count int) {
		t.Helper()
		cities := make([]City, len(pool))
		weights := make([]float64, len(pool))
		for i, k := range pool {
			cities[i] = worldCities[k]
			weights[i] = tb.bias[k]
		}
		want := hubWeightsByStableSort(cities, weights, count)
		if got := tb.hubWeights(pool, weights, count); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s count=%d: hub weights\n%v\nwant\n%v", label, count, got, want)
		}
	}
	counts := func(pool []int) []int {
		return []int{0, 1, hubCount, len(pool) - 1, len(pool), len(pool) + 7}
	}
	all := make([]int, len(worldCities))
	for k := range all {
		all[k] = k
	}
	run := func(label string, tb *tables) {
		for _, count := range counts(all) {
			check(label+" widened table", tb, all, count)
		}
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 60; trial++ {
			home := Region(trial % int(numRegions))
			var pool []int
			for k, c := range worldCities {
				if c.Region == home || rng.Float64() < 0.08 {
					pool = append(pool, k)
				}
			}
			for _, count := range counts(pool) {
				check(fmt.Sprintf("%s %v pool %d", label, home, trial), tb, pool, count)
			}
		}
	}
	run("embedded", newTables(DefaultConfig()))

	// Tied populations: round every population to a few coarse levels,
	// so most hub sets end inside a run of ties.
	saved := worldCities
	defer func() { worldCities = saved }()
	worldCities = append([]City(nil), saved...)
	for k := range worldCities {
		worldCities[k].Population = float64(1 + int(worldCities[k].Population)%4)
	}
	run("tied", newTables(DefaultConfig()))
}

// TestWeightedSamplerMatchesLinearScan is the property test for the
// Fenwick-tree draw: against integer weights (whose partial sums are
// exact in float64), the tree must pick exactly the index the historical
// O(n) linear scan would have picked, draw after draw, for the same dart
// sequence.
func TestWeightedSamplerMatchesLinearScan(t *testing.T) {
	linearDraw := func(rng *rand.Rand, weights []float64) int {
		var total float64
		for _, w := range weights {
			total += w
		}
		x := rng.Float64() * total
		var acc float64
		for i, w := range weights {
			acc += w
			if x < acc && w > 0 {
				return i
			}
		}
		for i := len(weights) - 1; i >= 0; i-- {
			if weights[i] > 0 {
				return i
			}
		}
		panic("empty")
	}
	for trial := 0; trial < 50; trial++ {
		setup := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 1 + setup.Intn(97)
		weights := make([]float64, n)
		positive := 0
		for i := range weights {
			weights[i] = float64(setup.Intn(9)) // zeros included on purpose
			if weights[i] > 0 {
				positive++
			}
		}
		if positive == 0 {
			weights[setup.Intn(n)] = 3
			positive = 1
		}
		s := newWeightedSampler(weights)
		ref := append([]float64(nil), weights...)
		rngA := rand.New(rand.NewSource(int64(2000 + trial)))
		rngB := rand.New(rand.NewSource(int64(2000 + trial)))
		for draw := 0; draw < positive; draw++ {
			got := s.Draw(rngA)
			want := linearDraw(rngB, ref)
			if got != want {
				t.Fatalf("trial %d draw %d: sampler picked %d, linear scan %d", trial, draw, got, want)
			}
			s.Zero(got)
			ref[want] = 0
		}
		if s.Total() != 0 {
			t.Fatalf("trial %d: %g weight left after exhausting", trial, s.Total())
		}
	}
}

func TestWeightedSamplerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Draw should panic with all-zero weights")
		}
	}()
	s := newWeightedSampler([]float64{0, 0})
	s.Draw(rand.New(rand.NewSource(1)))
}

// TestWeightedSamplerExhaustionExact pins that Total() reports exactly
// 0 once every positive entry has been drawn, even though the internal
// running total is maintained by incremental subtraction of weights
// (like 0.1) that are not exactly representable and so can leave a tiny
// floating-point residue. Callers guard hub-pool draws with
// `Total() > 0`; a residue sneaking through that guard used to reach
// Draw's "unreachable" panic on large universes with a high hub bias.
func TestWeightedSamplerExhaustionExact(t *testing.T) {
	weights := []float64{0.1, 0.2, 0.3, 0.7, 0.9, 1.1, 0.1, 0.3}
	s := newWeightedSampler(weights)
	rng := rand.New(rand.NewSource(99))
	for range weights {
		s.Zero(s.Draw(rng))
	}
	if got := s.Total(); got != 0 {
		t.Fatalf("Total() = %g after exhausting all entries, want exactly 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Draw on an exhausted sampler should panic")
		}
	}()
	s.Draw(rng)
}

func TestWeightedSamplerRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("newWeightedSampler should panic on negative weight")
		}
	}()
	newWeightedSampler([]float64{1, -1})
}
