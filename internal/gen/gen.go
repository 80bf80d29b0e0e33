// Package gen deterministically generates the synthetic ISP dataset that
// substitutes for the 65 measured Rocketfuel PoP-level topologies used by
// the paper (see DESIGN.md §4).
//
// Each generated ISP picks PoP cities from the embedded world-city table
// with population-biased sampling (so large hubs appear in many ISPs and
// pairs of ISPs meet in multiple cities, as real ISPs do), builds a
// geographic minimum-spanning-tree backbone, and adds distance-biased
// shortcut links (Waxman-style). Link weights are proportional to
// geographic length with deterministic jitter, matching the estimated
// inter-PoP weights of the measured dataset. A small fraction of ISPs are
// generated as logical meshes, mirroring the eight mesh topologies the
// paper excludes from distance experiments.
//
// Dataset format v2: every ISP draws from a private RNG stream keyed by
// (Config.Seed, ISP index) — the same splitmix64 derivation the runner's
// per-pair streams and the experiments' keyed pair selection use — so
// generateISP is a pure function of (Config, index) and Generate shards
// across cores with output byte-identical for every worker count. The
// format bump means v1 seeds are NOT reproducible: the same Seed yields
// a different (still fully deterministic) dataset than it did before
// the bump. TestGoldenV2 pins the v2 output per ISP.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/geo"
	"repro/internal/runner"
	"repro/internal/topology"
)

// Config controls dataset generation: the seed and the universe size.
// Everything else about the dataset model is fixed by the constants
// below (DESIGN.md §4).
type Config struct {
	Seed    int64 // master RNG seed; everything is derived from it
	NumISPs int   // number of ISPs to generate
}

// DefaultConfig returns the configuration used by the paper-reproduction
// experiments: 65 ISPs, as in the measured dataset.
func DefaultConfig() Config {
	return Config{Seed: 1, NumISPs: 65}
}

// The dataset model: size and density ranges matching Rocketfuel.
const (
	// minPoPs and maxPoPs bound the PoP count per ISP (inclusive).
	minPoPs, maxPoPs = 4, 36

	// populationBias is the exponent applied to city population when
	// sampling PoP locations. 0 would be uniform, 1 proportional;
	// higher values concentrate PoPs in the biggest hubs, increasing
	// the number of interconnections between ISP pairs.
	populationBias = 0.75

	// shortcutFraction is the number of extra (non-MST) links to
	// attempt per PoP. Rocketfuel backbones have average degree
	// ~2.5-3.5.
	shortcutFraction = 0.8

	// waxmanAlpha controls how sharply shortcut probability decays
	// with distance, as a fraction of the ISP's geographic diameter.
	waxmanAlpha = 0.35

	// weightJitter is the +/- fractional jitter applied to link
	// weights relative to geographic length (IGP weights track
	// distance only approximately in practice).
	weightJitter = 0.25

	// meshFraction is the fraction of ISPs generated as logical meshes
	// (every PoP pair directly linked); the paper excludes such ISPs
	// from distance experiments because mesh edge lengths are not
	// meaningful.
	meshFraction = 0.12

	// globalFraction is the fraction of ISPs with a worldwide
	// footprint; the rest are continental carriers that stay in one
	// region with occasional out-of-region PoPs.
	globalFraction = 0.2

	// outOfRegionProb is the per-PoP probability that a continental
	// ISP places a PoP outside its home region (e.g. a European
	// carrier with a New York PoP).
	outOfRegionProb = 0.08

	// hubBias is the per-PoP probability that the city is drawn from
	// the peering-hub set — the hubCount most-populous cities of the
	// sampling pool — instead of from the population-biased pool at
	// large. Concentrating PoPs in shared hub cities is what keeps ISP
	// pairs meeting in >=2 cities as universes grow past the paper's
	// 65 ISPs: over a large city table, unconcentrated draws spread
	// PoPs so thin that eligible pair counts collapse. The values keep
	// the 440-city table at the interconnection density (and thus
	// negotiation quality on failover) of the historical 155-city
	// universe: 0.5/32 yields ~540 directly-connected pairs at 65
	// ISPs, and one-shot negotiated worst-case MEL stays within the
	// stability bound of converged reactive routing.
	hubBias  = 0.5
	hubCount = 32

	// globalSizeBoost is the extra PoPs granted to small global ISPs so
	// a worldwide footprint implies scale (samplePoPs clamps the
	// boosted size to the available city pool).
	globalSizeBoost = 8
)

// Validate checks the configuration for obvious mistakes.
func (c Config) Validate() error {
	if c.NumISPs <= 0 {
		return fmt.Errorf("gen: NumISPs must be positive")
	}
	return nil
}

// regionShare weights the home-region draw; most measured ISPs are North
// American or European carriers.
var regionShare = map[Region]float64{
	NorthAmerica: 0.42,
	Europe:       0.30,
	Asia:         0.16,
	SouthAmerica: 0.05,
	Oceania:      0.04,
	Africa:       0.03,
}

// genDomain separates the dataset-generation RNG domain from the other
// consumers that derive splitmix64 streams from the same master seed
// (the runner's per-pair streams, selectPairs' keys, agentd's epoch
// drift keys): the per-ISP root is split off the master seed first, so
// an ISP's generation stream never coincides with an experiment pair's
// even when seeds and indices collide.
const genDomain = 0x67656e32 // "gen2"

// streamSeed keys ISP index i's private RNG stream off (seed, i) via
// the runner's splitmix64 derivation. It depends only on (seed, i) —
// never on worker count or scheduling — which is what makes Generate's
// output independent of parallelism.
func streamSeed(seed int64, i int) int64 {
	return runner.PairSeed(runner.PairSeed(seed, genDomain), i)
}

// Generate produces the dataset, sharding per-ISP generation across
// GOMAXPROCS cores (format v2: each ISP draws from its own
// (Seed, index)-keyed stream, see the package comment). The same Config
// always yields the same dataset, byte for byte, at every worker
// count. Every generated ISP passes Validate.
func Generate(cfg Config) ([]*topology.ISP, error) {
	return GenerateWorkers(cfg, 0)
}

// GenerateWorkers is Generate with an explicit worker count (<=0 =
// GOMAXPROCS). Output is byte-identical for every worker count; workers
// only change wall-clock time (TestGenerateParallelParity pins this).
func GenerateWorkers(cfg Config, workers int) ([]*topology.ISP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := newTables(cfg)
	isps := make([]*topology.ISP, cfg.NumISPs)
	errs := make([]error, cfg.NumISPs)
	runner.ForEachIndex(cfg.NumISPs, workers, func(i int) {
		isp := t.generateISP(i)
		if err := isp.Validate(); err != nil {
			errs[i] = fmt.Errorf("gen: generated invalid ISP %d: %v", i, err)
			return
		}
		isps[i] = isp
	})
	// The lowest-index error wins, deterministically, regardless of
	// which worker hit it.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return isps, nil
}

// tables holds what every ISP of one GenerateWorkers call reads from
// its Config and the embedded city table, computed once per call: the
// per-city population powers, and the table's population order for
// the peering-hub walk. It is read-only once built, so the workers
// share it.
type tables struct {
	cfg  Config
	bias []float64 // Pow(Population, populationBias) per table city
	// byPopulation lists table indices most populous first, table order
	// breaking ties (a stable sort of the table).
	byPopulation []int
}

func newTables(cfg Config) *tables {
	t := &tables{
		cfg:          cfg,
		bias:         make([]float64, len(worldCities)),
		byPopulation: make([]int, len(worldCities)),
	}
	for k, c := range worldCities {
		t.bias[k] = math.Pow(c.Population, populationBias)
		t.byPopulation[k] = k
	}
	sort.SliceStable(t.byPopulation, func(a, b int) bool {
		return worldCities[t.byPopulation[a]].Population > worldCities[t.byPopulation[b]].Population
	})
	return t
}

// generateISP builds ISP number index. It is a pure function of
// (cfg, index): all randomness comes from the ISP's private stream, so
// ISPs can generate concurrently in any order.
func (t *tables) generateISP(index int) *topology.ISP {
	rng := rand.New(rand.NewSource(streamSeed(t.cfg.Seed, index)))
	isp := &topology.ISP{
		Name: fmt.Sprintf("isp%02d", index),
		ASN:  7000 + index,
	}

	global := rng.Float64() < globalFraction
	home := drawRegion(rng)
	// Size: log-uniform so small ISPs are common, like Rocketfuel.
	span := math.Log(maxPoPs) - math.Log(minPoPs)
	n := int(math.Round(math.Exp(math.Log(minPoPs) + rng.Float64()*span)))
	n = min(max(n, minPoPs), maxPoPs)
	// Global ISPs skew larger.
	if global && n < 12 {
		n += globalSizeBoost
	}

	cities := t.samplePoPs(rng, home, global, n)
	isp.PoPs = make([]topology.PoP, len(cities))
	for i, k := range cities {
		c := &worldCities[k]
		isp.PoPs[i] = topology.PoP{ID: i, City: c.Name, Loc: c.Loc, Population: c.Population}
	}

	dist := distances(isp.PoPs)
	if rng.Float64() < meshFraction {
		buildMesh(isp, rng, dist)
	} else {
		buildBackbone(isp, rng, dist)
	}
	return isp
}

// distances returns the PoPs' geographic distance matrix, row-major:
// entry i*n+j is geo.DistanceKm from PoP i to PoP j. The haversine is
// symmetric bit for bit (an exact negation inside an odd sine, then
// squared), so each pair is computed once and mirrored.
func distances(pops []topology.PoP) []float64 {
	n := len(pops)
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			km := geo.DistanceKm(pops[i].Loc, pops[j].Loc)
			d[i*n+j], d[j*n+i] = km, km
		}
	}
	return d
}

// drawRegion samples a home region according to regionShare.
func drawRegion(rng *rand.Rand) Region {
	x := rng.Float64()
	var acc float64
	for r := Region(0); r < numRegions; r++ {
		acc += regionShare[r]
		if x < acc {
			return r
		}
	}
	return NorthAmerica
}

// samplePoPs draws n distinct cities, as table indices, with
// probability proportional to population^bias, restricted to the home
// region for continental ISPs (with occasional out-of-region PoPs).
// With probability hubBias each draw comes from the pool's peering-hub
// set instead (the hubCount most-populous cities), concentrating
// interconnection points the way real ISPs concentrate peering in a
// handful of hub metros. If n exceeds the pool — a boosted global ISP
// against a small table, or a widened region — it is clamped to the
// pool size rather than running the without-replacement draw dry.
func (t *tables) samplePoPs(rng *rand.Rand, home Region, global bool, n int) []int {
	pool := make([]int, 0, len(worldCities))
	for k, c := range worldCities {
		if global || c.Region == home || rng.Float64() < outOfRegionProb {
			pool = append(pool, k)
		}
	}
	if len(pool) < n {
		// Tiny regions (Oceania, Africa) may not have n cities; widen to
		// the whole world rather than fail.
		pool = pool[:len(worldCities)]
		for k := range pool {
			pool[k] = k
		}
	}
	if n > len(pool) {
		n = len(pool)
	}
	weights := make([]float64, len(pool))
	for i, k := range pool {
		weights[i] = t.bias[k]
	}
	all := newWeightedSampler(weights)
	hubs := newWeightedSampler(t.hubWeights(pool, weights, hubCount))
	out := make([]int, 0, n)
	for len(out) < n {
		var i int
		if hubs.Total() > 0 && rng.Float64() < hubBias {
			i = hubs.Draw(rng)
		} else {
			i = all.Draw(rng)
		}
		out = append(out, pool[i])
		all.Zero(i) // without replacement, in both samplers
		hubs.Zero(i)
	}
	return out
}

// hubWeights restricts a pool's weight vector to its peering-hub set:
// the count most-populous cities keep their weights, everything else
// drops to zero. pool holds ascending table indices, so walking the
// table's population order and keeping the pool's members meets them
// in the order a stable population sort of the pool would: population
// first, pool order breaking ties.
func (t *tables) hubWeights(pool []int, weights []float64, count int) []float64 {
	hw := make([]float64, len(pool))
	for _, k := range t.byPopulation {
		if count <= 0 {
			break
		}
		if i, ok := slices.BinarySearch(pool, k); ok {
			hw[i] = weights[i]
			count--
		}
	}
	return hw
}

// buildBackbone constructs a geographic MST plus Waxman shortcuts.
// distMatrix is the PoPs' distance matrix from distances.
func buildBackbone(isp *topology.ISP, rng *rand.Rand, distMatrix []float64) {
	n := len(isp.PoPs)
	dist := func(i, j int) float64 { return distMatrix[i*n+j] }

	// Prim's MST over geographic distance.
	inTree := make([]bool, n)
	best := make([]float64, n)
	from := make([]int, n)
	for i := range best {
		best[i] = math.Inf(1)
		from[i] = -1
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		best[j] = dist(0, j)
		from[j] = 0
	}
	have := map[[2]int]bool{}
	addLink := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if a == b || have[key] {
			return
		}
		have[key] = true
		d := dist(a, b)
		if d < 1 {
			d = 1 // co-located PoPs still cost something to connect
		}
		jitter := 1 + (rng.Float64()*2-1)*weightJitter
		isp.Links = append(isp.Links, topology.Link{
			A: a, B: b, Weight: d * jitter, LengthKm: d,
		})
	}
	for count := 1; count < n; count++ {
		u, ud := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if !inTree[j] && best[j] < ud {
				u, ud = j, best[j]
			}
		}
		inTree[u] = true
		addLink(u, from[u])
		for j := 0; j < n; j++ {
			if !inTree[j] {
				if d := dist(u, j); d < best[j] {
					best[j] = d
					from[j] = u
				}
			}
		}
	}

	// Diameter estimate for the Waxman decay scale.
	var diameter float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := dist(i, j); d > diameter {
				diameter = d
			}
		}
	}
	if diameter <= 0 {
		diameter = 1
	}
	attempts := int(shortcutFraction * float64(n) * 3)
	added := 0
	budget := int(shortcutFraction * float64(n))
	for t := 0; t < attempts && added < budget; t++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		p := math.Exp(-dist(a, b) / (waxmanAlpha * diameter))
		if rng.Float64() < p {
			before := len(isp.Links)
			addLink(a, b)
			if len(isp.Links) > before {
				added++
			}
		}
	}
}

// buildMesh links every pair of PoPs directly, producing a logical-mesh
// topology like the eight the paper excludes. dist is the PoPs'
// distance matrix from distances.
func buildMesh(isp *topology.ISP, rng *rand.Rand, dist []float64) {
	n := len(isp.PoPs)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			d := dist[a*n+b]
			if d < 1 {
				d = 1
			}
			jitter := 1 + (rng.Float64()*2-1)*weightJitter
			isp.Links = append(isp.Links, topology.Link{
				A: a, B: b, Weight: d * jitter, LengthKm: d,
			})
		}
	}
}
