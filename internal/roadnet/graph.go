package roadnet

import (
	"container/heap"
	"fmt"
	"math"
	"sync"

	"watter/internal/geo"
)

// Graph is an explicit weighted directed road graph with exactly one query
// engine, chosen by node count at Build: the contraction hierarchy (see
// contract.go / chquery.go) at chAutoMinNodes and above, the ALT engine
// (see pp.go) below — an A* search guided by landmark lower bounds that
// explores only the corridor between the endpoints instead of the whole
// city. Both return the same float32 shortest-path fold bit for bit.
//
// Two uncached reference arms stay beside the engine: CostSSSP, a full
// single-source Dijkstra per query that the equivalence tests and
// benchmarks compare the engine against (Reference wraps it as a
// Network), and CostALT, the CH engine's reference arm. Path runs the
// same Dijkstra for its prev chain.
type Graph struct {
	coords []geo.Point
	// CSR adjacency (forward) and its transpose (reverse, used by the
	// landmark preprocessing to compute distances *to* each landmark).
	headIdx []int32 // len = numNodes+1
	adjNode []geo.NodeID
	adjCost []float32
	revHead []int32
	revNode []geo.NodeID
	revCost []float32
	bounds  geo.Rect

	// ALT preprocessing (immutable after Build; see alt.go).
	landmarks []geo.NodeID
	landFrom  [][]float64 // landFrom[i][v] = dist(landmarks[i] -> v)
	landTo    [][]float64 // landTo[i][v]   = dist(v -> landmarks[i])
	altMul    float64     // multiplicative admissibility slack
	altAbs    float64     // absolute admissibility slack (seconds)

	// diam is the largest finite landmark distance observed during ALT
	// preprocessing — an observed lower bound on the diameter that doubles
	// as a sound 2x upper bound when the graph is strongly connected. The
	// contraction hierarchy's pruning margins are scaled from it.
	diam float64

	// Contraction hierarchy (see contract.go / chquery.go). Built by Build
	// for graphs >= chAutoMinNodes nodes, or on demand via EnableHierarchy;
	// when present it answers every Cost/CostPP/CostMatrix query.
	ch          *hierarchy
	chBuildSecs float64 // wall-clock cost of buildHierarchy (benchmark reporting only)

	// ppPool / chPool recycle per-query search state (pp.go / chquery.go).
	ppPool sync.Pool
	chPool sync.Pool
}

// edge is a temporary construction-time edge.
type edge struct {
	from, to geo.NodeID
	cost     float32
}

// GraphBuilder accumulates nodes and edges before freezing them into a
// Graph's CSR representation.
type GraphBuilder struct {
	coords []geo.Point
	edges  []edge
}

// AddNode appends a node at p and returns its NodeID.
func (b *GraphBuilder) AddNode(p geo.Point) geo.NodeID {
	b.coords = append(b.coords, p)
	return geo.NodeID(len(b.coords) - 1)
}

// AddEdge adds a directed edge with the given travel time in seconds.
func (b *GraphBuilder) AddEdge(from, to geo.NodeID, seconds float64) {
	b.edges = append(b.edges, edge{from, to, float32(seconds)})
}

// AddBidirectional adds edges in both directions with the same travel time.
func (b *GraphBuilder) AddBidirectional(u, v geo.NodeID, seconds float64) {
	b.AddEdge(u, v, seconds)
	b.AddEdge(v, u, seconds)
}

// Build freezes the builder into a Graph and runs the ALT preprocessing
// (landmark selection plus per-landmark distance arrays). The builder must
// not be reused.
func (b *GraphBuilder) Build() (*Graph, error) {
	n := len(b.coords)
	if n == 0 {
		return nil, fmt.Errorf("roadnet: graph has no nodes")
	}
	for _, e := range b.edges {
		if e.from < 0 || int(e.from) >= n || e.to < 0 || int(e.to) >= n {
			return nil, fmt.Errorf("roadnet: edge (%d,%d) references unknown node", e.from, e.to)
		}
		if e.cost < 0 {
			return nil, fmt.Errorf("roadnet: edge (%d,%d) has negative cost %f", e.from, e.to, e.cost)
		}
	}
	g := &Graph{
		coords:  b.coords,
		headIdx: make([]int32, n+1),
		adjNode: make([]geo.NodeID, len(b.edges)),
		adjCost: make([]float32, len(b.edges)),
		revHead: make([]int32, n+1),
		revNode: make([]geo.NodeID, len(b.edges)),
		revCost: make([]float32, len(b.edges)),
	}
	counts := make([]int32, n)
	for _, e := range b.edges {
		counts[e.from]++
	}
	for i := 0; i < n; i++ {
		g.headIdx[i+1] = g.headIdx[i] + counts[i]
	}
	fill := make([]int32, n)
	copy(fill, g.headIdx[:n])
	for _, e := range b.edges {
		g.adjNode[fill[e.from]] = e.to
		g.adjCost[fill[e.from]] = e.cost
		fill[e.from]++
	}
	for i := range counts {
		counts[i] = 0
	}
	for _, e := range b.edges {
		counts[e.to]++
	}
	for i := 0; i < n; i++ {
		g.revHead[i+1] = g.revHead[i] + counts[i]
	}
	copy(fill, g.revHead[:n])
	for _, e := range b.edges {
		g.revNode[fill[e.to]] = e.from
		g.revCost[fill[e.to]] = e.cost
		fill[e.to]++
	}
	g.bounds = boundsOf(g.coords)
	g.initLandmarks(defaultLandmarkCount(n))
	if n >= chAutoMinNodes {
		// Real-city scale: ALT query cost grows with the corridor, so the
		// contraction hierarchy pays for itself within a few leg matrices
		// (watterbench -benchroute reports the amortization). Small graphs
		// skip it; tests force it with EnableHierarchy.
		g.buildHierarchy()
	}
	return g, nil
}

func boundsOf(pts []geo.Point) geo.Rect {
	r := geo.Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// NumNodes implements Network.
func (g *Graph) NumNodes() int { return len(g.coords) }

// Coord implements Network.
func (g *Graph) Coord(n geo.NodeID) geo.Point { return g.coords[n] }

// Bounds implements Network.
func (g *Graph) Bounds() geo.Rect { return g.bounds }

// Cost implements Network through the graph's one query engine (CH when
// built, ALT otherwise); see CostPP.
func (g *Graph) Cost(from, to geo.NodeID) float64 { return g.CostPP(from, to) }

// CostSSSP answers a point-to-point query with a fresh, uncached full
// single-source Dijkstra. It is the reference implementation the engine is
// validated against and the "cold Dijkstra" arm of watterbench -benchroute.
func (g *Graph) CostSSSP(from, to geo.NodeID) float64 {
	if from == to {
		return 0
	}
	dist, _ := g.dijkstra(from)
	return float64(dist[to])
}

// Reference returns a Network that answers every query with g's uncached
// reference Dijkstra (CostSSSP). It deliberately implements no batched
// interface, so FillCostMatrix falls back to pairwise reference costs:
// equivalence tests run a whole planner or simulation over it and over g
// and require bit-identical results.
func Reference(g *Graph) Network { return reference{g} }

type reference struct{ g *Graph }

func (r reference) NumNodes() int                    { return r.g.NumNodes() }
func (r reference) Coord(n geo.NodeID) geo.Point     { return r.g.Coord(n) }
func (r reference) Bounds() geo.Rect                 { return r.g.Bounds() }
func (r reference) Cost(from, to geo.NodeID) float64 { return r.g.CostSSSP(from, to) }

// Path implements PathNetwork.
func (g *Graph) Path(from, to geo.NodeID) []geo.NodeID {
	dist, prev := g.dijkstra(from)
	if math.IsInf(float64(dist[to]), 1) {
		return nil
	}
	var rev []geo.NodeID
	for n := to; n != from; n = prev[n] {
		rev = append(rev, n)
		if len(rev) > len(g.coords) {
			return nil // defensive: broken prev chain
		}
	}
	rev = append(rev, from)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// pqItem is a priority-queue element for Dijkstra.
type pqItem struct {
	node geo.NodeID
	dist float32
}

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

//det:hotalloc reference-only full SSSP (CostSSSP, Path); hot paths reach it only through Reference, the test oracle, never through the query engine
func (g *Graph) dijkstra(src geo.NodeID) (dist []float32, prev []geo.NodeID) {
	n := len(g.coords)
	dist = make([]float32, n)
	prev = make([]geo.NodeID, n)
	inf := float32(math.Inf(1))
	for i := range dist {
		dist[i] = inf
		prev[i] = geo.InvalidNode
	}
	dist[src] = 0
	q := pq{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		for i := g.headIdx[it.node]; i < g.headIdx[it.node+1]; i++ {
			v := g.adjNode[i]
			nd := it.dist + g.adjCost[i]
			if nd < dist[v] {
				dist[v] = nd
				prev[v] = it.node
				heap.Push(&q, pqItem{v, nd})
			}
		}
	}
	return dist, prev
}
