package gridindex

import (
	"math"
	"sort"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// WorkerIndex tracks workers by grid cell and answers "closest idle worker
// to node X at time T" queries with expanding ring search, the standard
// grid-accelerated dispatch lookup the paper adopts from prior studies.
// Each ring's surviving candidates are costed with one batched
// roadnet.FillCostMatrix call, so a Graph-backed network ranks the whole
// ring with pruned point-to-point searches instead of per-worker full
// Dijkstras.
//
// The index is single-goroutine state: each simulation job owns its own.
type WorkerIndex struct {
	ix      *Index
	net     roadnet.Network
	cells   [][]*order.Worker // cell id -> workers whose Loc falls in it
	cellOf  map[int]int       // worker id -> cell id
	workers map[int]*order.Worker

	// Reusable ring-search scratch: the ring's candidates, their
	// locations, and their costs to the probed node.
	candBuf []*order.Worker
	locBuf  []geo.NodeID
	costBuf []float64
}

// NewWorkerIndex indexes the given workers.
func NewWorkerIndex(ix *Index, net roadnet.Network, workers []*order.Worker) *WorkerIndex {
	wi := &WorkerIndex{
		ix:      ix,
		net:     net,
		cells:   make([][]*order.Worker, ix.NumCells()),
		cellOf:  make(map[int]int, len(workers)),
		workers: make(map[int]*order.Worker, len(workers)),
	}
	for _, w := range workers {
		wi.insert(w)
	}
	return wi
}

func (wi *WorkerIndex) insert(w *order.Worker) {
	c := wi.ix.CellOf(w.Loc)
	wi.cells[c] = append(wi.cells[c], w)
	wi.cellOf[w.ID] = c
	wi.workers[w.ID] = w
}

// Update must be called after a worker's state changes (e.g. after a
// dispatch books it: FreeAt moves into the future and Loc becomes the
// route's last drop-off point).
func (wi *WorkerIndex) Update(w *order.Worker) {
	old, ok := wi.cellOf[w.ID]
	if !ok {
		wi.insert(w)
		return
	}
	nc := wi.ix.CellOf(w.Loc)
	if nc != old {
		bucket := wi.cells[old]
		for i, ww := range bucket {
			if ww.ID == w.ID {
				bucket[i] = bucket[len(bucket)-1]
				wi.cells[old] = bucket[:len(bucket)-1]
				break
			}
		}
		wi.cells[nc] = append(wi.cells[nc], w)
		wi.cellOf[w.ID] = nc
	}
}

// ringCosts batches the travel times from every candidate gathered for the
// current ring to node, reusing the index's scratch buffers. maxCost bounds
// each underlying search: candidates beyond it may come back +Inf, which
// every caller filters out anyway. On a Graph network this runs one pruned
// forward search per distinct candidate location (plus duplicate-location
// dedup) — a single reverse-graph sweep from node would be cheaper, but
// reverse-order float folds would break the engine's bit-equivalence
// contract with Cost, so forward searches are deliberate.
func (wi *WorkerIndex) ringCosts(node geo.NodeID, maxCost float64) []float64 {
	wi.locBuf = wi.locBuf[:0]
	for _, w := range wi.candBuf {
		wi.locBuf = append(wi.locBuf, w.Loc)
	}
	if cap(wi.costBuf) < len(wi.locBuf) {
		//det:hotalloc grows the scratch cost row once per ring-size high-water mark
		wi.costBuf = make([]float64, len(wi.locBuf))
	}
	wi.costBuf = wi.costBuf[:len(wi.locBuf)]
	target := [1]geo.NodeID{node}
	roadnet.FillCostMatrixWithin(wi.net, wi.locBuf, target[:], maxCost, wi.costBuf)
	return wi.costBuf
}

// ClosestIdle returns the idle worker (FreeAt <= now) with at least
// minCapacity seats whose travel time to node is smallest, or nil when no
// worker qualifies. Ring search expands outward from the node's cell and
// stops one ring after the first hit (a further ring cannot contain a
// closer worker only approximately, so one extra ring is scanned to absorb
// grid/metric mismatch).
func (wi *WorkerIndex) ClosestIdle(node geo.NodeID, now float64, minCapacity int) *order.Worker {
	w, _ := wi.ClosestIdleWithin(node, now, minCapacity, math.Inf(1))
	return w
}

// ClosestIdleWithin is ClosestIdle with a travel-time budget: workers whose
// cost to node exceeds maxCost are not candidates (the dispatcher passes
// the deadline slack the group can still absorb). Unreachable workers
// (+Inf cost) are never candidates — a grid-near but disconnected worker
// must not shadow a reachable one. Returns the worker and its travel time,
// or (nil, +Inf).
//
//det:hotpath the budgeted ring search backs every dispatch probe; buffers come from the index's scratch
func (wi *WorkerIndex) ClosestIdleWithin(node geo.NodeID, now float64, minCapacity int, maxCost float64) (*order.Worker, float64) {
	center := wi.ix.CellOf(node)
	var best *order.Worker
	bestCost := math.Inf(1)
	maxD := wi.ix.N() // worst case scans every cell
	foundAt := -1
	seen := 0 // workers encountered (any state); == Len() means later rings are empty
	for d := 0; d <= maxD; d++ {
		wi.candBuf = wi.candBuf[:0]
		//det:hotalloc non-escaping ring visitor, stack-allocated because Ring only invokes it inline
		wi.ix.Ring(center, d, func(cell int) bool {
			seen += len(wi.cells[cell])
			for _, w := range wi.cells[cell] {
				if !w.IdleAt(now) || w.Capacity < minCapacity {
					continue
				}
				wi.candBuf = append(wi.candBuf, w)
			}
			return true
		})
		if len(wi.candBuf) > 0 {
			costs := wi.ringCosts(node, maxCost)
			for i, w := range wi.candBuf {
				c := costs[i]
				if math.IsInf(c, 1) || c > maxCost {
					continue // unreachable or beyond the deadline budget
				}
				if best == nil || c < bestCost || (c == bestCost && w.ID < best.ID) {
					best = w
					bestCost = c
				}
			}
		}
		if best != nil && foundAt < 0 {
			foundAt = d
		}
		if foundAt >= 0 && d >= foundAt+1 {
			break
		}
		if seen >= len(wi.workers) {
			break // every worker lives in a scanned cell; the rest is empty
		}
	}
	if best == nil {
		return nil, math.Inf(1)
	}
	return best, bestCost
}

// KNearest returns up to k workers passing pred, ordered by increasing
// travel time from their location to node. The ring search scans outward
// and stops once it has k hits and one extra ring (grid distance only
// approximates travel time). Workers that cannot reach node at all are
// excluded.
func (wi *WorkerIndex) KNearest(node geo.NodeID, k int, pred func(*order.Worker) bool) []*order.Worker {
	if k <= 0 {
		return nil
	}
	center := wi.ix.CellOf(node)
	type cand struct {
		w    *order.Worker
		cost float64
	}
	var cands []cand
	foundAt := -1
	seen := 0
	for d := 0; d <= wi.ix.N(); d++ {
		wi.candBuf = wi.candBuf[:0]
		//det:hotalloc non-escaping ring visitor, stack-allocated because Ring only invokes it inline
		wi.ix.Ring(center, d, func(cell int) bool {
			seen += len(wi.cells[cell])
			for _, w := range wi.cells[cell] {
				if pred != nil && !pred(w) {
					continue
				}
				wi.candBuf = append(wi.candBuf, w)
			}
			return true
		})
		if len(wi.candBuf) > 0 {
			costs := wi.ringCosts(node, math.Inf(1))
			for i, w := range wi.candBuf {
				if math.IsInf(costs[i], 1) {
					continue // disconnected: not a usable candidate
				}
				cands = append(cands, cand{w, costs[i]})
			}
		}
		if len(cands) >= k && foundAt < 0 {
			foundAt = d
		}
		if foundAt >= 0 && d >= foundAt+1 {
			break
		}
		if seen >= len(wi.workers) {
			break // all workers encountered; further rings are empty
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].w.ID < cands[j].w.ID
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]*order.Worker, len(cands))
	for i, c := range cands {
		out[i] = c.w
	}
	return out
}

// SupplyDistribution returns the normalized spatial distribution of idle
// workers at time now (the MDP state's sW vector).
func (wi *WorkerIndex) SupplyDistribution(now float64) Distribution {
	d := wi.ix.NewDistribution()
	for cell, ws := range wi.cells {
		for _, w := range ws {
			if w.IdleAt(now) {
				d[cell]++
			}
		}
	}
	d.Normalize()
	return d
}

// CellOfWorker returns the cell the index currently files the worker under.
func (wi *WorkerIndex) CellOfWorker(id int) (int, bool) {
	c, ok := wi.cellOf[id]
	return c, ok
}

// Len returns the number of indexed workers.
func (wi *WorkerIndex) Len() int { return len(wi.workers) }
