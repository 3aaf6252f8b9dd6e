package route

import (
	"slices"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// legBlock is the 4x4 travel-cost matrix over one order pair's four route
// events, row-major over [pickup_lo, dropoff_lo, pickup_hi, dropoff_hi]
// where lo is the member with the smaller order ID.
type legBlock [16]float64

type pairKey struct{ lo, hi int }

// LegStore memoizes per-pair leg blocks for the shareability graph's route
// planning. Every clique the pool plans is a set of orders whose pairs were
// each already cost-tested once (the pairwise shareability check), so a
// k-group's (2k)x(2k) leg matrix decomposes entirely into k*(k-1)/2 pair
// blocks — assembling it from the store replaces a batched network search
// per considered clique with plain copies. Entries are the pure,
// deterministic cost(l1, l2) values the network would return fresh, so
// store-assembled plans are bit-identical to store-free ones.
//
// A LegStore belongs to exactly one pool and is not safe for concurrent
// use; lifetime and eviction follow the pool's node set.
//
// On a network that answers one-to-all rows (a roadnet.Graph on the ALT
// engine) every order gets two shortest-path rows, one from its
// pickup and one from its dropoff, and a block is read out of the two
// orders' rows instead of being searched: two full searches per order
// replace four pruned searches per pair, and every later pair test that
// touches the order costs sixteen reads. PreparePair fills missing rows
// before a pair's first plan; Evict recycles them through a free list, so
// row memory is bounded by the pool's high-water size (8 bytes per node
// per order).
type LegStore struct {
	net     roadnet.Network
	rows    *rowTable // nil when the network answers no rows
	blocks  map[pairKey]*legBlock
	byOrder map[int][]pairKey
	hits    uint64
	fills   uint64
}

// rowNetwork is a network that answers one-to-all rows:
// roadnet.Graph.AppendCostRow, which refuses (ok == false) when the
// graph's engine is the contraction hierarchy.
type rowNetwork interface {
	AppendCostRow(dst []float32, src geo.NodeID) (row []float32, ok bool)
}

// rowTable holds the per-order shortest-path rows of a row-backed store.
// Task stores made by Fork share it read-only.
type rowTable struct {
	net rowNetwork
	// of maps an order ID to its rows: costs from the pickup to every node,
	// then costs from the dropoff to every node.
	of     map[int][]float32
	free   [][]float32 // rows of evicted orders, reused before allocating
	filled uint64
}

// NewLegStore returns an empty store over the network. The store is
// row-backed when the network answers rows, until it first refuses one (a
// Graph on the contraction hierarchy).
func NewLegStore(net roadnet.Network) *LegStore {
	s := &LegStore{
		net:     net,
		blocks:  make(map[pairKey]*legBlock),
		byOrder: make(map[int][]pairKey),
	}
	if rn, ok := net.(rowNetwork); ok {
		s.rows = &rowTable{net: rn, of: make(map[int][]float32)}
	}
	return s
}

// Fork returns an empty store over the same network that reads this
// store's order rows. The sharded engine's pair prewarm gives each task a
// fork: the coordinator fills every row the tasks need (PreparePair)
// before fanning out, so tasks only read the shared rows, and their blocks
// come back through Adopt. Rows must not be prepared or evicted while
// forks are in use.
func (s *LegStore) Fork() *LegStore {
	return &LegStore{
		net:     s.net,
		rows:    s.rows,
		blocks:  make(map[pairKey]*legBlock),
		byOrder: make(map[int][]pairKey),
	}
}

// PreparePair fills whichever of the two orders' shortest-path rows are
// missing; the pool calls it before planning a pair for the first time.
// It is a no-op on stores that are not row-backed. A block whose rows were
// never prepared is still filled exactly, by a batched network query.
func (s *LegStore) PreparePair(a, b *order.Order) {
	s.prepare(a)
	s.prepare(b)
}

// prepare fills the order's rows, reusing an evicted order's storage when
// one is free. The first refused row turns the store's rows off for good:
// the engine is fixed when the graph is built.
func (s *LegStore) prepare(o *order.Order) {
	t := s.rows
	if t == nil {
		return
	}
	if _, ok := t.of[o.ID]; ok {
		return
	}
	var buf []float32
	if k := len(t.free); k > 0 {
		buf = t.free[k-1][:0]
		t.free = t.free[:k-1]
	}
	buf, ok := t.net.AppendCostRow(buf, o.Pickup)
	if !ok {
		s.rows = nil
		return
	}
	buf, _ = t.net.AppendCostRow(buf, o.Dropoff)
	t.of[o.ID] = buf
	t.filled++
}

// rowBlock fills blk from the pair's rows, reporting false when the store
// is not row-backed or either order has no rows yet. Entry (r, c) is the
// cost from event r to event c, read from event r's row at event c's node.
func (s *LegStore) rowBlock(lo, hi *order.Order, blk *legBlock) bool {
	if s.rows == nil {
		return false
	}
	rl, okLo := s.rows.of[lo.ID]
	rh, okHi := s.rows.of[hi.ID]
	if !okLo || !okHi {
		return false
	}
	n := len(rl) / 2
	from := [4][]float32{rl[:n], rl[n:], rh[:n], rh[n:]}
	to := [4]geo.NodeID{lo.Pickup, lo.Dropoff, hi.Pickup, hi.Dropoff}
	for r, row := range from {
		for c, v := range to {
			blk[r*4+c] = float64(row[v])
		}
	}
	return true
}

// block returns the pair's leg block (filling it on first use from the
// orders' rows, or else with one batched network query) and whether the
// pair was given in (hi, lo) order — the caller needs that to map member
// indices onto block rows.
//
//det:specwrite memoized pure leg matrix keyed by the pair; every store has exactly one writer goroutine and the cached values are bit-identical no matter when the fill ran
func (s *LegStore) block(a, b *order.Order) (blk *legBlock, swapped bool) {
	lo, hi := a, b
	if lo.ID > hi.ID {
		lo, hi = hi, lo
		swapped = true
	}
	key := pairKey{lo.ID, hi.ID}
	if blk, ok := s.blocks[key]; ok {
		s.hits++
		return blk, swapped
	}
	//det:hotalloc one block per distinct pair, cached for the pair's lifetime and amortized over thousands of DP touches
	blk = new(legBlock)
	if !s.rowBlock(lo, hi, blk) {
		locs := [4]geo.NodeID{lo.Pickup, lo.Dropoff, hi.Pickup, hi.Dropoff}
		roadnet.FillCostMatrix(s.net, locs[:], locs[:], blk[:])
	}
	s.blocks[key] = blk
	s.byOrder[lo.ID] = append(s.byOrder[lo.ID], key)
	s.byOrder[hi.ID] = append(s.byOrder[hi.ID], key)
	s.fills++
	return blk, swapped
}

// DropPair removes one pair's cached block. The pool uses it when a
// pairwise shareability test fails: with no edge the pair can never appear
// in a clique, so its block is dead weight. The byOrder index keeps a stale
// key; Evict skips it harmlessly.
func (s *LegStore) DropPair(aID, bID int) {
	if aID > bID {
		aID, bID = bID, aID
	}
	delete(s.blocks, pairKey{aID, bID})
}

// Evict drops every block involving the order (called when it leaves the
// pool) and moves its rows to the free list. Keys for already-deleted
// blocks (the partner was evicted first) are skipped harmlessly.
func (s *LegStore) Evict(orderID int) {
	for _, key := range s.byOrder[orderID] {
		delete(s.blocks, key)
	}
	delete(s.byOrder, orderID)
	if t := s.rows; t != nil {
		if row, ok := t.of[orderID]; ok {
			t.free = append(t.free, row)
			delete(t.of, orderID)
		}
	}
}

// Adopt moves every block of the other store into this one, indexing them
// per member for eviction; blocks already present win (they hold the same
// pure cost values, so the choice is cosmetic). The sharded engine's insert
// prewarm computes pair blocks into throwaway per-task stores on shard
// goroutines, then adopts them into the pool's store on the coordinator —
// the fills counter follows the blocks so accounting matches a sequential
// fill. The other store must not be used afterwards.
func (s *LegStore) Adopt(other *LegStore) {
	// Adopt in (lo, hi) order: the byOrder index slices then grow in the
	// same order however the shard scheduler interleaved the task stores,
	// keeping even internal state bit-stable across runs.
	keys := make([]pairKey, 0, len(other.blocks))
	for key := range other.blocks {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b pairKey) int {
		if a.lo != b.lo {
			return a.lo - b.lo
		}
		return a.hi - b.hi
	})
	for _, key := range keys {
		if _, ok := s.blocks[key]; ok {
			continue
		}
		s.blocks[key] = other.blocks[key]
		s.byOrder[key.lo] = append(s.byOrder[key.lo], key)
		s.byOrder[key.hi] = append(s.byOrder[key.hi], key)
		s.fills++
	}
}

// Len reports the number of cached pair blocks.
func (s *LegStore) Len() int { return len(s.blocks) }

// BlocksFor reports how many live blocks involve the order.
func (s *LegStore) BlocksFor(orderID int) int {
	n := 0
	for _, key := range s.byOrder[orderID] {
		if _, ok := s.blocks[key]; ok {
			n++
		}
	}
	return n
}

// Stats reports block reuses and block fills since construction.
func (s *LegStore) Stats() (hits, fills uint64) { return s.hits, s.fills }

// RowsFilled reports how many orders had their rows computed (reused
// storage included); 0 on a store that is not row-backed.
func (s *LegStore) RowsFilled() uint64 {
	if s.rows == nil {
		return 0
	}
	return s.rows.filled
}

// assembleLegs fills the (ne x ne) leg matrix for the group from the
// store's pair blocks. Each member pair contributes its cross entries; the
// within-member entries (pickup<->dropoff) ride along from whichever blocks
// contain the member — every block holding an order carries the same pure
// cost values, so repeated writes are idempotent.
func assembleLegs(store *LegStore, orders []*order.Order, ne int, legs []float64) {
	for i := 0; i < len(orders); i++ {
		for j := i + 1; j < len(orders); j++ {
			blk, swapped := store.block(orders[i], orders[j])
			ri, rj := 0, 2
			if swapped {
				ri, rj = 2, 0
			}
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					legs[(2*i+a)*ne+(2*j+b)] = blk[(ri+a)*4+(rj+b)]
					legs[(2*j+b)*ne+(2*i+a)] = blk[(rj+b)*4+(ri+a)]
					legs[(2*i+a)*ne+(2*i+b)] = blk[(ri+a)*4+(ri+b)]
					legs[(2*j+a)*ne+(2*j+b)] = blk[(rj+a)*4+(rj+b)]
				}
			}
		}
	}
}
