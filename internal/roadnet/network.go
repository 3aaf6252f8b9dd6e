// Package roadnet provides the road-network substrate every WATTER component
// travels on: an explicit weighted graph with exact shortest paths (ALT, or
// a contraction hierarchy at city scale, checked against an uncached
// reference Dijkstra) and a closed-form grid-metric city (used for
// large-scale benchmark sweeps where millions of cost queries must stay
// cheap).
//
// The rest of the system depends only on the Network interface: a travel
// time oracle cost(l1, l2) in seconds plus enough geometry to build spatial
// indexes. The paper's shortest travel cost "cost(li, lj)" maps directly to
// Network.Cost.
package roadnet

import (
	"fmt"
	"math"

	"watter/internal/geo"
)

// Network is a travel-time oracle over a fixed set of locations.
//
// Implementations must be safe for concurrent readers after construction.
type Network interface {
	// NumNodes returns the number of locations; valid NodeIDs are
	// [0, NumNodes).
	NumNodes() int
	// Coord returns the planar position of a node in meters.
	Coord(n geo.NodeID) geo.Point
	// Cost returns the shortest travel time in seconds from one node to
	// another. Cost(n, n) is 0. Unreachable pairs return +Inf.
	Cost(from, to geo.NodeID) float64
	// Bounds returns the bounding box of all node coordinates.
	Bounds() geo.Rect
}

// PathNetwork is implemented by networks that can also materialize the
// node sequence of a shortest path (used by visualization and by tests that
// validate route feasibility edge by edge).
type PathNetwork interface {
	Network
	// Path returns the node sequence of a shortest path from one node to
	// another, inclusive of both endpoints. Returns nil if unreachable.
	Path(from, to geo.NodeID) []geo.NodeID
}

// MatrixNetwork is an optional Network extension for batched many-to-many
// cost queries: out[i][j] = Cost(sources[i], targets[j]). Implementations
// answer a whole matrix with one pruned search per distinct source instead
// of len(sources)*len(targets) independent oracle calls; Graph implements
// it.
type MatrixNetwork interface {
	Network
	CostMatrix(sources, targets []geo.NodeID) [][]float64
}

// matrixFiller is the zero-allocation internal form of MatrixNetwork.
type matrixFiller interface {
	costMatrixInto(sources, targets []geo.NodeID, maxCost float64, out []float64)
}

// FillCostMatrix fills out (row-major, len >= len(sources)*len(targets))
// with out[i*len(targets)+j] = Cost(sources[i], targets[j]), using the
// network's batched engine when it has one and falling back to pairwise
// Cost calls otherwise (closed-form networks like GridCity answer each pair
// in O(1), so the fallback is already optimal for them). This is the
// allocation-free call the route planner's leg matrix and the worker
// index's ring ranking are built on.
func FillCostMatrix(net Network, sources, targets []geo.NodeID, out []float64) {
	FillCostMatrixWithin(net, sources, targets, math.Inf(1), out)
}

// FillCostMatrixWithin is FillCostMatrix with a travel-time budget: entries
// whose cost exceeds maxCost may be reported as +Inf instead of their exact
// value (every entry <= maxCost is exact). A batched engine uses the budget
// to stop each search early, which keeps queries cheap when the caller only
// wants candidates within a deadline slack.
func FillCostMatrixWithin(net Network, sources, targets []geo.NodeID, maxCost float64, out []float64) {
	if m, ok := net.(matrixFiller); ok {
		m.costMatrixInto(sources, targets, maxCost, out)
		return
	}
	if m, ok := net.(MatrixNetwork); ok {
		// External batched implementations see the documented public API;
		// their exact entries satisfy the Within contract trivially.
		nt := len(targets)
		for i, row := range m.CostMatrix(sources, targets) {
			copy(out[i*nt:(i+1)*nt], row)
		}
		return
	}
	nt := len(targets)
	for i, s := range sources {
		row := out[i*nt : (i+1)*nt]
		for j, t := range targets {
			row[j] = net.Cost(s, t)
		}
	}
}

// ValidateNode returns an error if n is not a node of net.
func ValidateNode(net Network, n geo.NodeID) error {
	if n < 0 || int(n) >= net.NumNodes() {
		return fmt.Errorf("roadnet: node %d out of range [0,%d)", n, net.NumNodes())
	}
	return nil
}

// TriangleSlack reports cost(a,c) - (cost(a,b) + cost(b,c)). For any
// shortest-path metric this must be <= 0 (up to floating error); property
// tests use it as an invariant.
func TriangleSlack(net Network, a, b, c geo.NodeID) float64 {
	return net.Cost(a, c) - (net.Cost(a, b) + net.Cost(b, c))
}
