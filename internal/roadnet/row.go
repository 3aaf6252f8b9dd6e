package roadnet

import (
	"math"

	"watter/internal/geo"
)

// One-to-all rows for the ALT engine. A pair test needs the 4x4 costs
// among two orders' pickups and dropoffs; on the ALT engine that is four
// multi-target searches per pair, repeated for every partner an order is
// tested against. A row — one full Dijkstra from a pickup or a dropoff —
// answers every pair test of that location at the price of about two
// searches, so callers that test many pairs per order (the route
// package's LegStore) read their blocks out of rows instead.
//
// Exactness: the row is the reference dijkstra's fold — nd = dist[u] + w
// in float32, relaxed only when nd < dist[v], a node expanded only at its
// final distance — so row[v] is the same min-over-paths float32 left-fold
// CostSSSP and the ALT engine return, bit for bit. Only the heap differs
// (the pooled hand-rolled ppHeap instead of container/heap), and the heap
// decides nothing but the order in which equal-final nodes are expanded.
//
// Under the contraction hierarchy a row is refused: one n-node Dijkstra
// loses to the hierarchy's matrix queries, and at city scale (≥16384
// nodes) a row is hundreds of kilobytes per location.

// AppendCostRow appends the shortest travel time from src to every node
// (in NodeID order, as float32; +Inf when unreachable) to dst and returns
// the extended slice. dst's spare capacity is reused, so a caller
// recycling rows allocates nothing in steady state. It returns (dst,
// false) without searching when the graph's engine is the contraction
// hierarchy.
func (g *Graph) AppendCostRow(dst []float32, src geo.NodeID) ([]float32, bool) {
	if g.ch != nil {
		return dst, false
	}
	n := len(g.coords)
	base := len(dst)
	dst = append(dst, make([]float32, n)...)
	row := dst[base:]
	inf := float32(math.Inf(1))
	for i := range row {
		row[i] = inf
	}
	row[src] = 0

	sc := g.getScratch()
	sc.heap = sc.heap[:0]
	sc.heap.push(ppItem{key: 0, dist: 0, node: src})
	for len(sc.heap) > 0 {
		it := sc.heap.pop()
		if it.dist > row[it.node] {
			continue // stale entry
		}
		for i := g.headIdx[it.node]; i < g.headIdx[it.node+1]; i++ {
			v := g.adjNode[i]
			nd := it.dist + g.adjCost[i] // float32 fold, same as dijkstra()
			if nd < row[v] {
				row[v] = nd
				sc.heap.push(ppItem{key: float64(nd), dist: nd, node: v})
			}
		}
	}
	g.ppPool.Put(sc)
	return dst, true
}
