package roadnet

import (
	"math"

	"watter/internal/geo"
)

// Point-to-point routing engine: goal-directed A* over the CSR graph using
// the ALT lower bounds from alt.go, generalized to one-source/many-targets
// so a route planner leg matrix or a ring of dispatch candidates is filled
// by one pruned search per source instead of a full city Dijkstra each.
//
// Exactness: relaxations accumulate in float32 exactly like the reference
// Dijkstra (nd = dist[u] + w), the search keeps no closed list (worse
// entries are skipped as stale, improved nodes re-enter the queue), and a
// target's distance is only finalized once the minimum queue key — a lower
// bound on every remaining path's float32 fold, because the heuristic is
// admissible for the float32 metric — reaches it. The result is therefore
// the same min-over-paths float32 left-fold the full Dijkstra computes,
// bit for bit; the property tests enforce this on random jittered cities.
//
// Concurrency: the graph and landmark arrays are immutable after Build;
// all mutable search state lives in a pooled ppScratch, so any number of
// goroutines may query concurrently (the sweep engine shares one Graph
// across replicate runs).

// ppItem is a search frontier entry: key = dist + heuristic orders the
// queue, dist is the tentative float32 distance at insertion time.
type ppItem struct {
	key  float64
	dist float32
	node geo.NodeID
}

// ppHeap is a hand-rolled binary min-heap on key (container/heap's
// interface indirection costs ~2x on this hot path).
type ppHeap []ppItem

func (h *ppHeap) push(it ppItem) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p].key <= q[i].key {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	*h = q
}

func (h *ppHeap) pop() ppItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && q[l].key < q[s].key {
			s = l
		}
		if r < n && q[r].key < q[s].key {
			s = r
		}
		if s == i {
			break
		}
		q[i], q[s] = q[s], q[i]
		i = s
	}
	*h = q
	return top
}

// ppScratch is the reusable per-query state: generation-stamped distance
// and heuristic arrays (O(1) reset), the frontier heap, and small target
// bookkeeping slices.
type ppScratch struct {
	dist []float32
	gen  []uint32
	// hval/hgen cache the per-node heuristic under the target-set epoch
	// hcur, which only advances when sc.uniq changes — so a matrix's
	// sources share one heuristic evaluation per node.
	hval []float64
	hgen []uint32
	cur  uint32
	hcur uint32
	heap ppHeap

	uniq    []geo.NodeID // deduplicated targets
	res     []float64    // result per uniq target
	pending []int        // uniq indices not yet finalized
	colIdx  []int        // output column -> uniq index
}

//det:hotalloc pool miss or first query after a graph grows; steady state reuses pooled arrays
func (g *Graph) getScratch() *ppScratch {
	sc, _ := g.ppPool.Get().(*ppScratch)
	if sc == nil {
		sc = &ppScratch{}
	}
	if n := len(g.coords); len(sc.dist) < n {
		sc.dist = make([]float32, n)
		sc.gen = make([]uint32, n)
		sc.hval = make([]float64, n)
		sc.hgen = make([]uint32, n)
		sc.cur = 0
	}
	return sc
}

// nextGen starts a fresh search epoch; on uint32 wraparound the stamp
// array is zeroed so stale stamps can never collide.
func (sc *ppScratch) nextGen() {
	sc.cur++
	if sc.cur == 0 {
		for i := range sc.gen {
			sc.gen[i] = 0
		}
		sc.cur = 1
	}
	sc.heap = sc.heap[:0]
}

// newTargetEpoch invalidates the cached heuristic values; callers invoke it
// once per distinct target set, not once per source.
func (sc *ppScratch) newTargetEpoch() {
	sc.hcur++
	if sc.hcur == 0 {
		for i := range sc.hgen {
			sc.hgen[i] = 0
		}
		sc.hcur = 1
	}
}

// maxHeuristicWork bounds targets x landmarks per heuristic evaluation;
// beyond it the search falls back to h = 0 (goal-stopped Dijkstra), which
// is still exact — the heuristic only prunes.
const maxHeuristicWork = 128

// CostPP returns the shortest travel time from one node to another via the
// graph's query engine (+Inf when unreachable): the CH engine (chquery.go)
// when the hierarchy is built, ALT otherwise. Bit-identical to CostSSSP.
func (g *Graph) CostPP(from, to geo.NodeID) float64 {
	if from == to {
		return 0
	}
	if g.ch != nil {
		return g.chCostPP(from, to)
	}
	return g.CostALT(from, to)
}

// CostALT answers a point-to-point query via the ALT engine regardless of
// whether a contraction hierarchy is built. It is the property-test and
// benchmark reference arm for the CH engine.
func (g *Graph) CostALT(from, to geo.NodeID) float64 {
	if from == to {
		return 0
	}
	sc := g.getScratch()
	//det:hotalloc pooled scratch retains capacity across queries; these appends grow it only on first use
	sc.uniq = append(sc.uniq[:0], to)
	//det:hotalloc pooled scratch retains capacity across queries; grows only on first use
	sc.res = append(sc.res[:0], 0)
	sc.newTargetEpoch()
	g.searchFrom(sc, from, math.Inf(1))
	d := sc.res[0]
	g.ppPool.Put(sc)
	return d
}

// CostMatrix returns the many-to-many travel-time matrix
// out[i][j] = Cost(sources[i], targets[j]) with one pruned multi-target
// search per distinct source. This is the batched API the route planner's
// leg matrix and the worker index's candidate rings are built on.
//
//det:hotalloc allocating public matrix API; hot callers go through FillCostMatrix, whose matrixFiller branch fills a caller-owned buffer instead
func (g *Graph) CostMatrix(sources, targets []geo.NodeID) [][]float64 {
	out := make([][]float64, len(sources))
	if len(targets) == 0 {
		return out
	}
	flat := make([]float64, len(sources)*len(targets))
	for i := range out {
		out[i] = flat[i*len(targets) : (i+1)*len(targets) : (i+1)*len(targets)]
	}
	g.costMatrixInto(sources, targets, math.Inf(1), flat)
	return out
}

// costMatrixInto implements the zero-allocation FillCostMatrix fast path:
// out is row-major with len >= len(sources)*len(targets). Entries whose
// cost exceeds maxCost may be reported as +Inf (every entry <= maxCost is
// exact); pass +Inf for the full matrix.
func (g *Graph) costMatrixInto(sources, targets []geo.NodeID, maxCost float64, out []float64) {
	nt := len(targets)
	if nt == 0 || len(sources) == 0 {
		return
	}
	if g.ch != nil {
		g.chMatrixInto(sources, targets, maxCost, out)
		return
	}
	sc := g.getScratch()
	// Deduplicate targets, remembering each output column's slot.
	sc.uniq = sc.uniq[:0]
	sc.colIdx = sc.colIdx[:0]
	for _, t := range targets {
		slot := -1
		for k, u := range sc.uniq {
			if u == t {
				slot = k
				break
			}
		}
		if slot < 0 {
			slot = len(sc.uniq)
			//det:hotalloc pooled scratch retains capacity across queries; grows only on first use
			sc.uniq = append(sc.uniq, t)
		}
		//det:hotalloc pooled scratch retains capacity across queries; grows only on first use
		sc.colIdx = append(sc.colIdx, slot)
	}
	if cap(sc.res) < len(sc.uniq) {
		//det:hotalloc grows the pooled result row once per high-water target count
		sc.res = make([]float64, len(sc.uniq))
	}
	sc.res = sc.res[:len(sc.uniq)]
	sc.newTargetEpoch() // targets are fixed: sources share heuristic values

	for i, s := range sources {
		// Duplicate sources reuse the already-computed row.
		dup := -1
		for j := 0; j < i; j++ {
			if sources[j] == s {
				dup = j
				break
			}
		}
		row := out[i*nt : (i+1)*nt]
		if dup >= 0 {
			copy(row, out[dup*nt:(dup+1)*nt])
			continue
		}
		g.searchFrom(sc, s, maxCost)
		for j := 0; j < nt; j++ {
			row[j] = sc.res[sc.colIdx[j]]
		}
	}
	g.ppPool.Put(sc)
}

// searchFrom runs one exact multi-target A* from src over sc.uniq, filling
// sc.res (aligned with sc.uniq; +Inf for unreachable targets). Targets
// farther than budget may be left at +Inf: once the minimum queue key —
// an admissible lower bound on reaching any remaining target — exceeds
// budget, no pending target can cost <= budget and the search stops.
func (g *Graph) searchFrom(sc *ppScratch, src geo.NodeID, budget float64) {
	sc.nextGen()
	cur := sc.cur
	inf := math.Inf(1)

	useALT := len(g.landmarks) > 0 && len(sc.uniq)*len(g.landmarks) <= maxHeuristicWork
	hcur := sc.hcur
	//det:hotalloc non-escaping closure, stack-allocated because h never leaves searchFrom
	h := func(v geo.NodeID) float64 {
		if !useALT {
			return 0
		}
		if sc.hgen[v] == hcur {
			return sc.hval[v]
		}
		b := inf
		for _, t := range sc.uniq {
			if bt := g.altBound(v, t); bt < b {
				b = bt
			}
		}
		sc.hval[v] = b
		sc.hgen[v] = hcur
		return b
	}

	sc.pending = sc.pending[:0]
	for k := range sc.uniq {
		sc.res[k] = inf
		sc.pending = append(sc.pending, k)
	}
	// A +Inf landmark bound from src is an exact unreachability proof
	// (see altBound); pre-finalizing such targets keeps one stranded node
	// in a matrix from forcing a full-component search per source.
	if len(g.landmarks) > 0 {
		for k := len(sc.pending) - 1; k >= 0; k-- {
			if math.IsInf(g.altBound(src, sc.uniq[sc.pending[k]]), 1) {
				sc.pending[k] = sc.pending[len(sc.pending)-1]
				sc.pending = sc.pending[:len(sc.pending)-1]
			}
		}
		if len(sc.pending) == 0 {
			return
		}
	}

	sc.dist[src] = 0
	sc.gen[src] = cur
	sc.heap.push(ppItem{key: h(src), dist: 0, node: src})

	for len(sc.heap) > 0 {
		it := sc.heap.pop()
		// it.key is the minimum over all remaining frontier entries, and
		// every improving path to a target must pass through an entry whose
		// key lower-bounds the path's float32 fold (admissible heuristic).
		// A target whose tentative distance is <= it.key is final.
		for k := len(sc.pending) - 1; k >= 0; k-- {
			ti := sc.pending[k]
			t := sc.uniq[ti]
			if sc.gen[t] == cur && float64(sc.dist[t]) <= it.key {
				sc.res[ti] = float64(sc.dist[t])
				sc.pending[k] = sc.pending[len(sc.pending)-1]
				sc.pending = sc.pending[:len(sc.pending)-1]
			}
		}
		if len(sc.pending) == 0 {
			sc.heap = sc.heap[:0]
			return
		}
		if it.key > budget {
			// Every pending target costs at least it.key > budget; the
			// caller treats beyond-budget entries as unreachable.
			sc.heap = sc.heap[:0]
			return
		}
		if it.dist > sc.dist[it.node] {
			continue // stale: a better entry for this node was processed
		}
		for i := g.headIdx[it.node]; i < g.headIdx[it.node+1]; i++ {
			v := g.adjNode[i]
			nd := it.dist + g.adjCost[i] // float32 fold, same as dijkstra()
			if sc.gen[v] == cur && nd >= sc.dist[v] {
				continue
			}
			sc.dist[v] = nd
			sc.gen[v] = cur
			sc.heap.push(ppItem{key: float64(nd) + h(v), dist: nd, node: v})
		}
	}
	// Queue exhausted: every reachable node's distance is final; targets
	// never reached stay +Inf.
	for _, ti := range sc.pending {
		t := sc.uniq[ti]
		if sc.gen[t] == cur {
			sc.res[ti] = float64(sc.dist[t])
		}
	}
}
