package roadnet

import (
	"math"

	"watter/internal/geo"
)

// Contraction-hierarchy query engine (hierarchy built by contract.go).
//
// The query is the same exact multi-target A* as pp.go's searchFrom, run
// over the shortcut-augmented graph with a two-phase state space: state
// (v, climb) relaxes upward edges (rank-increasing, plus the core plateau)
// and may switch to (w, descend) over a downward edge; state (v, descend)
// relaxes downward edges only. Every minimal float32 fold is achieved by
// some climb-then-descend path (contract.go's witness margins guarantee a
// fold-dominating replacement exists whenever a contraction removes a
// path shape), and every state label *is* an exact float32 fold of real
// original edges — a shortcut is relaxed by unpacking it back to its
// original-edge sequence and folding in path order. So the search needs
// no new exactness argument: the ALT heuristic is admissible for the fold
// metric over all real paths, a superset of the two-phase paths, and the
// finalization rule is inherited from searchFrom verbatim. The phases are
// purely pruning: the climb frontier stays on the small up-cone instead of
// reflooding the Dijkstra ball, which is where the size-independent query
// cost comes from. On top of the phases sit three more exact prunes: the
// heuristic runs with chBound's weight-based hop-budget deflation instead
// of ALT's node-count slack (initCHSlack), per-edge fold lower bounds skip
// relaxations before unpacking anything, and single-target queries prime
// the skip threshold from the landmark upper bound (ubHint) so pruning
// starts at the first pop.

// chScratch is the pooled per-query CH search state: generation-stamped
// two-phase distance labels (state = node for climbing, node+n for
// descending), the shared heuristic cache, the frontier heap, the shortcut
// unpack stack, and the same target bookkeeping as ppScratch.
type chScratch struct {
	dist []float32 // len 2n: tentative fold per (node, phase) state
	gen  []uint32
	hval []float64 // heuristic cache, per node (phases share it)
	hgen []uint32
	cur  uint32
	hcur uint32
	heap ppHeap

	// Target descent cone: the set of nodes from which some target is
	// reachable by downward edges alone, marked by walking the reverse-down
	// CSR from each target. Restricting the descend phase to the cone is
	// lossless (every down-path to a target stays inside it by definition)
	// and is what keeps the search on climb-cone x target-cone instead of
	// reflooding the city. The cone's incoming down edges are also bucketed
	// by tail node (tFirst/tNext/tEdge form per-node linked lists), so the
	// search relaxes exactly the useful down edges instead of scanning a
	// high-rank node's entire down list against the marks. Computed once
	// per target-set epoch, so a matrix's sources share one marking pass.
	coneMark []uint32
	coneQ    []int32
	coneEp   uint32
	tStamp   []uint32
	tFirst   []int32
	// Packed relax inputs per bucketed edge, copied out of the arena once
	// per target epoch so the search never touches the arena for a
	// transition/descend relaxation that fails the prefilter.
	tPack []coneEdge

	uniq    []geo.NodeID
	res     []float64
	pending []int
	colIdx  []int
}

//det:hotalloc pool miss or first query after a graph grows; steady state reuses pooled arrays
func (g *Graph) getCHScratch() *chScratch {
	sc, _ := g.chPool.Get().(*chScratch)
	if sc == nil {
		sc = &chScratch{}
	}
	if n := len(g.coords); len(sc.dist) < 2*n {
		sc.dist = make([]float32, 2*n)
		sc.gen = make([]uint32, 2*n)
		sc.hval = make([]float64, n)
		sc.hgen = make([]uint32, n)
		sc.coneMark = make([]uint32, n)
		sc.tStamp = make([]uint32, n)
		sc.tFirst = make([]int32, n)
		sc.cur = 0
		sc.hcur = 0
		sc.coneEp = 0
	}
	return sc
}

func (sc *chScratch) nextGen() {
	sc.cur++
	if sc.cur == 0 {
		for i := range sc.gen {
			sc.gen[i] = 0
		}
		sc.cur = 1
	}
	sc.heap = sc.heap[:0]
}

func (sc *chScratch) newTargetEpoch() {
	sc.hcur++
	if sc.hcur == 0 {
		for i := range sc.hgen {
			sc.hgen[i] = 0
		}
		for i := range sc.coneMark {
			sc.coneMark[i] = 0
		}
		for i := range sc.tStamp {
			sc.tStamp[i] = 0
		}
		sc.coneEp = 0
		sc.hcur = 1
	}
}

// coneEdge is one bucketed cone-incoming edge: the arena index (for the
// fold), the intrusive next pointer of its tail-node bucket, and the packed
// relax inputs.
type coneEdge struct {
	ei, next int32
	to       geo.NodeID
	w, lbm   float32
}

// buildCone marks the union of the targets' descent cones under the
// current target epoch (a node is marked iff some target is reachable
// from it by downward edges alone).
func (g *Graph) buildCone(sc *chScratch) {
	h := g.ch
	sc.coneQ = sc.coneQ[:0]
	for _, t := range sc.uniq {
		if sc.coneMark[t] != sc.hcur {
			sc.coneMark[t] = sc.hcur
			//det:hotalloc pooled scratch retains capacity across queries; grows only on first use
			sc.coneQ = append(sc.coneQ, int32(t))
		}
	}
	sc.tPack = sc.tPack[:0]
	for qi := 0; qi < len(sc.coneQ); qi++ {
		x := sc.coneQ[qi]
		for i := h.dnRevHead[x]; i < h.dnRevHead[x+1]; i++ {
			ei := h.dnRevEdge[i]
			e := &h.edges[ei]
			f := e.from
			// Bucket this cone-incoming edge under its tail node.
			if sc.tStamp[f] != sc.hcur {
				sc.tStamp[f] = sc.hcur
				sc.tFirst[f] = -1
			}
			//det:hotalloc pooled scratch retains capacity across queries; grows only on first use
			sc.tPack = append(sc.tPack, coneEdge{
				ei: ei, next: sc.tFirst[f], to: e.to,
				w: h.wLo[ei], lbm: h.lbmLo[ei],
			})
			sc.tFirst[f] = int32(len(sc.tPack) - 1)
			if sc.coneMark[f] != sc.hcur {
				sc.coneMark[f] = sc.hcur
				sc.coneQ = append(sc.coneQ, int32(f))
			}
		}
	}
	sc.coneEp = sc.hcur
}

// chFold extends the float32 fold d across arena edge ei over the edge's
// flattened original-weight sequence, in path order — the exact additions
// the reference Dijkstra performs along the unpacked path.
func (g *Graph) chFold(d float32, ei int32) float32 {
	e := &g.ch.edges[ei]
	for _, w := range g.ch.leafW[e.leafOff : e.leafOff+e.hops] {
		d += w
	}
	return d
}

// chBound is altBound with the hierarchy's (usually much tighter) fold-error
// deflation from initCHSlack. Identical +Inf semantics: an infinite bound is
// an exact unreachability proof, and the Inf-Inf NaN is rejected by the
// comparisons.
func (g *Graph) chBound(v, t geo.NodeID) float64 {
	var lb float64
	for i := range g.landmarks {
		if b := g.landTo[i][v] - g.landTo[i][t]; b > lb {
			lb = b
		}
		if b := g.landFrom[i][t] - g.landFrom[i][v]; b > lb {
			lb = b
		}
	}
	if lb <= 0 {
		return 0
	}
	lb = lb*g.ch.chMul - g.ch.chAbs
	if lb < 0 {
		return 0
	}
	return lb
}

// chCostPP is CostPP's hierarchy arm.
func (g *Graph) chCostPP(from, to geo.NodeID) float64 {
	sc := g.getCHScratch()
	//det:hotalloc pooled scratch retains capacity across queries; grows only on first use
	sc.uniq = append(sc.uniq[:0], to)
	//det:hotalloc pooled scratch retains capacity across queries; grows only on first use
	sc.res = append(sc.res[:0], 0)
	sc.newTargetEpoch()
	// Landmark upper bound on the trip (src -> L -> to): lets the search
	// scale its fold-error deflation to the trip instead of the diameter.
	ubHint := math.Inf(1)
	for i := range g.landmarks {
		if ub := g.landTo[i][from] + g.landFrom[i][to]; ub < ubHint {
			ubHint = ub
		}
	}
	g.chSearchFrom(sc, from, math.Inf(1), ubHint)
	d := sc.res[0]
	g.chPool.Put(sc)
	return d
}

// chMatrixInto is costMatrixInto's hierarchy arm: same target dedup and
// duplicate-source row reuse, one two-phase search per distinct source.
func (g *Graph) chMatrixInto(sources, targets []geo.NodeID, maxCost float64, out []float64) {
	nt := len(targets)
	sc := g.getCHScratch()
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
	sc.newTargetEpoch()

	for i, s := range sources {
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
		g.chSearchFrom(sc, s, maxCost, 0)
		for j := 0; j < nt; j++ {
			row[j] = sc.res[sc.colIdx[j]]
		}
	}
	g.chPool.Put(sc)
}

// chSearchFrom runs one exact multi-target two-phase A* from src over
// sc.uniq, filling sc.res (+Inf for unreachable; targets beyond budget may
// be left +Inf). Structure, finalization, and budget semantics mirror
// searchFrom — see the package comment above for why the answers are
// bit-identical to the reference Dijkstra's.
//
//det:hotpath the CH query inner loop backs every Cost/CostMatrix call on hierarchy-enabled graphs; all mutable state lives in the pooled chScratch
func (g *Graph) chSearchFrom(sc *chScratch, src geo.NodeID, budget, ubHint float64) {
	sc.nextGen()
	cur := sc.cur
	inf := math.Inf(1)
	h32 := g.ch
	n := geo.NodeID(len(g.coords))
	if sc.coneEp != sc.hcur {
		g.buildCone(sc)
	}
	mcur := sc.hcur

	// Heuristic deflation for this search: the graph-wide chMul/chAbs by
	// default, tightened further for single-pair queries where ubHint (a
	// landmark upper bound on the trip) lets the hop budget scale with the
	// trip instead of the diameter. Every quantity the admissibility proof
	// bounds by the diameter is then bounded by ubHint instead: protected
	// folds stay below 2*ubHint (enforced by guardQ on the maxUBh prune and
	// implied by final distance <= ubHint for the finalize invariant), so a
	// budget of 4*ubHint/minw hops covers them with slack to spare.
	chMulQ, chAbsQ, guardQ := h32.chMul, h32.chAbs, 4*g.diam
	if h32.chTight && ubHint > 0 && !math.IsInf(ubHint, 1) {
		khop := math.Ceil(4 * ubHint / h32.minw)
		if khop < 16 {
			khop = 16
		}
		if slack := 4 * khop * chEps32; slack < 1-h32.chMul {
			chMulQ = 1 - slack
			chAbsQ = slack * 2 * ubHint
			guardQ = 2 * ubHint
		}
	}

	useALT := len(g.landmarks) > 0 && len(sc.uniq)*len(g.landmarks) <= maxHeuristicWork
	hcur := sc.hcur
	k2 := 2 * len(g.landmarks)
	//det:hotalloc non-escaping closure, stack-allocated because h never leaves chSearchFrom
	h := func(v geo.NodeID) float64 {
		if !useALT {
			return 0
		}
		if sc.hgen[v] == hcur {
			return sc.hval[v]
		}
		b := inf
		vp := h32.landPack[int(v)*k2 : int(v)*k2+k2]
		for _, t := range sc.uniq {
			tp := h32.landPack[int(t)*k2 : int(t)*k2+k2]
			var lb float64
			for i := 0; i < k2; i += 2 {
				if d := vp[i] - tp[i]; d > lb {
					lb = d
				}
				if d := tp[i+1] - vp[i+1]; d > lb {
					lb = d
				}
			}
			if lb > 0 {
				lb = lb*chMulQ - chAbsQ
			}
			if lb < 0 {
				lb = 0
			}
			if lb < b {
				b = lb
			}
		}
		sc.hval[v] = b
		sc.hgen[v] = hcur
		return b
	}
	// tdist reads a target's best tentative fold across both phase states.
	//det:hotalloc one closure header per search, amortized over thousands of relaxations
	tdist := func(t geo.NodeID) (float32, bool) {
		d, ok := float32(0), false
		if sc.gen[t] == cur {
			d, ok = sc.dist[t], true
		}
		if sc.gen[t+n] == cur && (!ok || sc.dist[t+n] < d) {
			d, ok = sc.dist[t+n], true
		}
		return d, ok
	}

	sc.pending = sc.pending[:0]
	for k := range sc.uniq {
		sc.res[k] = inf
		sc.pending = append(sc.pending, k)
	}
	// A +Inf landmark bound from src is an exact unreachability proof;
	// contraction preserves reachability, so pre-finalizing here is the
	// same optimization searchFrom makes.
	if len(g.landmarks) > 0 {
		for k := len(sc.pending) - 1; k >= 0; k-- {
			if math.IsInf(g.chBound(src, sc.uniq[sc.pending[k]]), 1) {
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

	// maxUB is the worst tentative distance among pending targets once all
	// of them have one (+Inf before that). A relaxation whose fold lower
	// bound reaches maxUB cannot improve any pending target, so skipping it
	// leaves every result bit-identical. maxUBh additionally folds in the
	// heuristic, which is only sound while the tight chMul/chAbs hop budget
	// covers every walk below maxUB — hence the 4*diam guard where it is
	// refreshed.
	maxUB := inf
	maxUBh := inf
	// Prime the pruning bounds from the landmark upper bound: every fold the
	// search must protect stays below ubHint*(1+slack) (the final distance is
	// at most ubHint times the fold error), so relaxations at or above that
	// can be skipped from the very first pop instead of only after the
	// target is reached. Single-target only — ubHint bounds one trip.
	if h32.chTight && len(sc.uniq) == 1 && ubHint > 0 && !math.IsInf(ubHint, 1) {
		ubInit := ubHint * (1 + 8*(1-chMulQ))
		maxUB = ubInit
		if ubInit <= guardQ {
			maxUBh = ubInit
		}
	}
	//det:hotalloc one closure header per search, amortized over thousands of relaxations
	relax := func(it ppItem, ei int32, st geo.NodeID, w, lbm float64) {
		// Certain lower bound on the fold across this edge: skipping on it
		// is exact, and it avoids unpacking the shortcut at all for the
		// (majority of) relaxations that cannot improve anything. The maxUB
		// test runs first: it needs no memory access, while the label test
		// reads two per-state arrays.
		lb := (float64(it.dist) + w) * lbm
		if lb >= maxUB {
			return
		}
		if sc.gen[st] == cur && lb >= float64(sc.dist[st]) {
			return
		}
		v := st
		if v >= n {
			v -= n
		}
		if lb+h(v) >= maxUBh {
			return
		}
		nd := g.chFold(it.dist, ei)
		if sc.gen[st] == cur && nd >= sc.dist[st] {
			return
		}
		sc.dist[st] = nd
		sc.gen[st] = cur
		sc.heap.push(ppItem{key: float64(nd) + h(v), dist: nd, node: st})
	}

	for len(sc.heap) > 0 {
		it := sc.heap.pop()
		// it.key lower-bounds every remaining improving path's fold, exactly
		// as in searchFrom; a target at or below it is final. The same scan
		// refreshes maxUB for the relax pruning above.
		ub, allReached := 0.0, true
		for k := len(sc.pending) - 1; k >= 0; k-- {
			ti := sc.pending[k]
			d, ok := tdist(sc.uniq[ti])
			if ok && float64(d) <= it.key {
				sc.res[ti] = float64(d)
				sc.pending[k] = sc.pending[len(sc.pending)-1]
				sc.pending = sc.pending[:len(sc.pending)-1]
				continue
			}
			if !ok {
				allReached = false
			} else if float64(d) > ub {
				ub = float64(d)
			}
		}
		if allReached {
			maxUB = ub
			if h32.chTight && ub <= guardQ {
				maxUBh = ub
			} else {
				maxUBh = inf
			}
		}
		if len(sc.pending) == 0 {
			sc.heap = sc.heap[:0]
			return
		}
		if it.key > budget {
			sc.heap = sc.heap[:0]
			return
		}
		if it.dist > sc.dist[it.node] {
			continue
		}
		v := it.node
		if v < n { // climbing: may keep climbing, or descend into a cone
			for i := h32.upHead[v]; i < h32.upHead[v+1]; i++ {
				relax(it, h32.upEdge[i], h32.upTo[i], float64(h32.upW[i]), float64(h32.upLbM[i]))
			}
			if sc.tStamp[v] == mcur {
				for j := sc.tFirst[v]; j >= 0; {
					e := &sc.tPack[j]
					relax(it, e.ei, e.to+n, float64(e.w), float64(e.lbm))
					j = e.next
				}
			}
		} else { // descending: the cone's own down edges only
			v -= n
			if sc.tStamp[v] == mcur {
				for j := sc.tFirst[v]; j >= 0; {
					e := &sc.tPack[j]
					relax(it, e.ei, e.to+n, float64(e.w), float64(e.lbm))
					j = e.next
				}
			}
		}
	}
	for _, ti := range sc.pending {
		if d, ok := tdist(sc.uniq[ti]); ok {
			sc.res[ti] = float64(d)
		}
	}
}
