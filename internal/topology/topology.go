// Package topology models PoP-level ISP networks: points of presence with
// geographic coordinates, weighted intra-ISP links, and interconnections
// between pairs of ISPs.
//
// This substrate substitutes for the measured Rocketfuel dataset used by
// the paper (65 PoP-level ISP topologies with inferred link weights). The
// types here are produced by the generator in internal/gen and consumed by
// routing, traffic, and negotiation code.
package topology

import (
	"fmt"
	"math"

	"repro/internal/geo"
)

// PoP is a point of presence: an ISP's presence in one city.
type PoP struct {
	ID         int       // index of the PoP within its ISP; equals its slice position
	City       string    // city name, unique within an ISP
	Loc        geo.Point // geographic coordinates of the city
	Population float64   // metro population, the gravity-model weight (paper §5.2)
}

// Link is an undirected intra-ISP link between two PoPs.
type Link struct {
	A, B     int     // PoP IDs, A < B by convention
	Weight   float64 // routing weight (OSPF-like); shortest paths minimize the sum of weights
	LengthKm float64 // geographic length, used by the distance metric (paper §5.1)
}

// ISP is a single autonomous system at PoP granularity.
type ISP struct {
	Name  string
	ASN   int
	PoPs  []PoP
	Links []Link
}

// NumPoPs returns the number of PoPs.
func (n *ISP) NumPoPs() int { return len(n.PoPs) }

// Adjacency returns, for each PoP, the list of (neighbor, link index)
// pairs. The returned structure is freshly allocated.
func (n *ISP) Adjacency() [][]Edge {
	adj := make([][]Edge, len(n.PoPs))
	for i, l := range n.Links {
		adj[l.A] = append(adj[l.A], Edge{To: l.B, Link: i})
		adj[l.B] = append(adj[l.B], Edge{To: l.A, Link: i})
	}
	return adj
}

// Edge is one direction of a link in an adjacency list.
type Edge struct {
	To   int // neighbor PoP ID
	Link int // index into ISP.Links
}

// Validate checks structural invariants: PoP IDs equal their positions,
// cities are unique, coordinates are valid, link endpoints are in range
// and canonical, there are no self-loops or duplicate links, weights,
// lengths and populations are finite and non-negative, and the graph is
// connected (for ISPs with more than one PoP).
func (n *ISP) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("topology: ISP has empty name")
	}
	if len(n.PoPs) == 0 {
		return fmt.Errorf("topology: ISP %s has no PoPs", n.Name)
	}
	seenCity := make(map[string]bool, len(n.PoPs))
	for i, p := range n.PoPs {
		if p.ID != i {
			return fmt.Errorf("topology: ISP %s PoP at index %d has ID %d", n.Name, i, p.ID)
		}
		if p.City == "" {
			return fmt.Errorf("topology: ISP %s PoP %d has empty city", n.Name, i)
		}
		if seenCity[p.City] {
			return fmt.Errorf("topology: ISP %s has duplicate city %q", n.Name, p.City)
		}
		seenCity[p.City] = true
		if !p.Loc.Valid() {
			return fmt.Errorf("topology: ISP %s PoP %s has invalid location %v", n.Name, p.City, p.Loc)
		}
		if p.Population < 0 {
			return fmt.Errorf("topology: ISP %s PoP %s has negative population", n.Name, p.City)
		}
		if !finite(p.Population) {
			return fmt.Errorf("topology: ISP %s PoP %s has non-finite population %v", n.Name, p.City, p.Population)
		}
	}
	seenLink := make(map[[2]int]bool, len(n.Links))
	for i, l := range n.Links {
		if l.A < 0 || l.A >= len(n.PoPs) || l.B < 0 || l.B >= len(n.PoPs) {
			return fmt.Errorf("topology: ISP %s link %d endpoints out of range", n.Name, i)
		}
		if l.A == l.B {
			return fmt.Errorf("topology: ISP %s link %d is a self-loop", n.Name, i)
		}
		if l.A > l.B {
			return fmt.Errorf("topology: ISP %s link %d not canonical (A=%d > B=%d)", n.Name, i, l.A, l.B)
		}
		key := [2]int{l.A, l.B}
		if seenLink[key] {
			return fmt.Errorf("topology: ISP %s duplicate link %d-%d", n.Name, l.A, l.B)
		}
		seenLink[key] = true
		if l.Weight < 0 || l.LengthKm < 0 {
			return fmt.Errorf("topology: ISP %s link %d has negative weight or length", n.Name, i)
		}
		if !finite(l.Weight) || !finite(l.LengthKm) {
			return fmt.Errorf("topology: ISP %s link %d has non-finite weight %v or length %v", n.Name, i, l.Weight, l.LengthKm)
		}
	}
	if !n.Connected() {
		return fmt.Errorf("topology: ISP %s is not connected", n.Name)
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Connected reports whether every PoP is reachable from PoP 0.
func (n *ISP) Connected() bool {
	if len(n.PoPs) <= 1 {
		return true
	}
	adj := n.Adjacency()
	seen := make([]bool, len(n.PoPs))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == len(n.PoPs)
}

// MeshDensityThreshold is the link-density threshold above which a
// topology is considered a logical mesh. The paper excludes eight
// Rocketfuel ISPs whose measured topologies are logical meshes, because
// geographic distance along a mesh edge does not reflect the true
// underlying path.
const MeshDensityThreshold = 0.8

// IsMesh reports whether the topology is (close to) a full mesh: the
// number of links exceeds MeshDensityThreshold times n*(n-1)/2.
func (n *ISP) IsMesh() bool {
	np := len(n.PoPs)
	if np < 3 {
		return false
	}
	full := np * (np - 1) / 2
	return float64(len(n.Links)) > MeshDensityThreshold*float64(full)
}
