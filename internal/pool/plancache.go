package pool

import (
	"strconv"

	"watter/internal/order"
)

// The clique plan cache exploits two invariants of the exact route DP:
//
//  1. Now-independence. For a fixed member set, `now` enters PlanGroup only
//     through the deadline pruning check `now + t > deadline`. Raising now
//     monotonically shrinks the feasible route set and never adds routes,
//     so while the cached minimal route R* remains dispatchable
//     (now <= τg(R*), i.e. every deadline check along R* still passes), it
//     is still present in the shrunken set and still minimal — a fresh DP
//     at the later now reclaims exactly the same dp values, parents and
//     tie-breaks along R*'s chain. Positive entries (cost, τg, service
//     times, plan) are therefore reusable verbatim until now > τg.
//  2. Monotone infeasibility. A member set with no feasible route at now
//     has none at any later now (the feasible set only shrinks), so a
//     negative entry is permanent until a member leaves the pool.
//
// Both arguments assume the pool's clock never goes backwards, which
// Algorithm 1 guarantees (inserts, ticks and drains advance monotonically).
//
// Keys are the canonical (ascending-ID) member signature; the pool plans
// every clique in canonical member order, so cached and fresh computations
// share one member indexing and stay bit-identical. Entries are evicted
// when any member leaves the pool (Remove/RemoveGroup); a positive entry
// whose τg has passed is replanned in place at the current clock — the
// cheapest route died, but a costlier one may still be live.

// CacheStats counts plan-cache traffic over one pool lifetime.
type CacheStats struct {
	// Hits served a live positive entry; NegativeHits served a permanent
	// negative one. Both avoid a full route DP (and its leg matrix).
	Hits, NegativeHits uint64
	// Misses planned a set for the first time; Renewed replanned a positive
	// entry whose τg had passed; Evicted counts entries dropped because a
	// member left the pool.
	Misses, Renewed, Evicted uint64
	// PlansMaterialized counts full RoutePlan constructions (winning
	// cliques only); PlansReused counts wins served by an already
	// materialized group.
	PlansMaterialized, PlansReused uint64
}

// PlansAvoided is the number of route DPs the cache absorbed.
func (s CacheStats) PlansAvoided() uint64 { return s.Hits + s.NegativeHits }

// HitRate is PlansAvoided over all lookups.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.NegativeHits + s.Misses + s.Renewed
	if total == 0 {
		return 0
	}
	return float64(s.PlansAvoided()) / float64(total)
}

// planEntry memoizes one member set's route DP outcome. members and svc are
// in canonical (ascending-ID) order; group is materialized lazily, only
// when the clique actually wins some order's best-group race.
type planEntry struct {
	members  []*order.Order
	svc      []float64 // per-member service times T(L(i))
	cost     float64
	expiry   float64 // τg (Eq. 3)
	feasible bool
	group    *order.Group
}

// planCache is the per-pool memo. It is confined to the pool's goroutine,
// like every other piece of pool state.
type planCache struct {
	entries map[string]*planEntry
	// byOrder indexes entry keys by member ID for eviction. Lists may hold
	// stale keys (a co-member was evicted first); deleting those is a
	// no-op.
	byOrder map[int][]string
	stats   CacheStats
}

func newPlanCache() *planCache {
	return &planCache{
		entries: make(map[string]*planEntry),
		byOrder: make(map[int][]string),
	}
}

// memberKey renders the canonical member signature into the pool's reusable
// key buffer. The returned bytes are valid until the next call.
//
//det:hotpath runs once per cache probe inside the clique enumeration and reuses the pool's key buffer
func (p *Pool) memberKey(members []*order.Order) []byte {
	b := p.keyBuf[:0]
	for _, o := range members {
		b = strconv.AppendInt(b, int64(o.ID), 10)
		b = append(b, ',')
	}
	p.keyBuf = b
	return b
}

// planEntryFor returns the plan-cache entry for the canonical member set at
// time now, computing (or renewing) it when needed. With the cache disabled
// it returns a fresh transient entry — the same computation the cached path
// would run on a miss, so both modes are bit-identical decision for
// decision.
func (p *Pool) planEntryFor(canon []*order.Order, now float64) *planEntry {
	if p.cache == nil {
		ent := &planEntry{}
		p.fillEntry(ent, canon, now)
		return ent
	}
	key := p.memberKey(canon)
	if ent, ok := p.cache.entries[string(key)]; ok {
		return p.cacheServe(ent, canon, now)
	}
	ent := &planEntry{}
	p.fillEntry(ent, canon, now)
	p.cacheInsert(key, ent)
	return ent
}

// cacheServe resolves a found entry: negative and live-positive entries are
// returned verbatim; a positive entry whose τg passed is replanned in place
// at the current clock — the cached minimal route can no longer be
// dispatched, but a costlier route may still be feasible. A renewal that
// comes back infeasible turns the entry (permanently) negative.
func (p *Pool) cacheServe(ent *planEntry, canon []*order.Order, now float64) *planEntry {
	switch {
	case !ent.feasible:
		p.cache.stats.NegativeHits++
	case now <= ent.expiry:
		p.cache.stats.Hits++
	default:
		p.cache.stats.Renewed++
		ent.group = nil
		p.fillEntry(ent, canon, now)
	}
	return ent
}

// cacheInsert records a freshly planned entry under the rendered key and
// indexes it per member for eviction.
func (p *Pool) cacheInsert(key []byte, ent *planEntry) {
	p.cache.stats.Misses++
	ks := string(key)
	p.cache.entries[ks] = ent
	for _, o := range ent.members {
		p.cache.byOrder[o.ID] = append(p.cache.byOrder[o.ID], ks)
	}
}

// pairEntryFor is planEntryFor specialized for Insert's pairwise
// shareability test. An infeasible pair creates no edge, and cliques are
// enumerated over edges only, so a failed test's negative outcome (and its
// leg block) can never be looked up again — persisting them would only
// grow the memo. Feasible pairs are cached normally: the refresh that
// follows the insert hits them immediately as 2-cliques.
func (p *Pool) pairEntryFor(a, b *order.Order, now float64) *planEntry {
	canon := p.canonical(a, b)
	if p.cache == nil {
		ent := &planEntry{}
		p.fillEntry(ent, canon, now)
		return ent
	}
	key := p.memberKey(canon)
	if ent, ok := p.cache.entries[string(key)]; ok {
		// Already cached (the partner's earlier edge test).
		return p.cacheServe(ent, canon, now)
	}
	// Probe with a reusable scratch entry: a failed test allocates nothing,
	// a successful one promotes the probe into the cache (and the next test
	// gets a fresh probe).
	ent := p.pairProbe
	if ent == nil {
		ent = &planEntry{members: make([]*order.Order, 0, 2), svc: make([]float64, 2)}
	}
	ent.members = append(ent.members[:0], canon...)
	ent.svc = ent.svc[:len(ent.members)]
	ent.group = nil
	p.legs.PreparePair(a, b)
	ent.cost, ent.expiry, ent.feasible = p.planner.PlanGroupCost(ent.members, now, p.opt.Capacity, p.legs, ent.svc)
	if !ent.feasible {
		p.pairProbe = ent
		if p.legs != nil {
			p.legs.DropPair(a.ID, b.ID)
		}
		return ent
	}
	p.pairProbe = nil
	p.cacheInsert(key, ent)
	return ent
}

// fillEntry runs the cost-only DP for the set and stores the outcome. The
// entry owns copies of the member slice and service-time row (the caller's
// canon slice is enumeration scratch).
func (p *Pool) fillEntry(ent *planEntry, canon []*order.Order, now float64) {
	if ent.members == nil {
		ent.members = append([]*order.Order(nil), canon...)
		ent.svc = make([]float64, len(canon))
	}
	cost, expiry, ok := p.planner.PlanGroupCost(ent.members, now, p.opt.Capacity, p.legs, ent.svc)
	ent.cost, ent.expiry, ent.feasible = cost, expiry, ok
}

// groupFor materializes (once) the entry's winning group. Only cliques that
// win a best-group race reach here; every losing candidate stays cost-only.
func (p *Pool) groupFor(ent *planEntry, now float64) *order.Group {
	if ent.group != nil {
		if p.cache != nil {
			p.cache.stats.PlansReused++
		}
		return ent.group
	}
	plan, ok := p.planner.PlanGroupShared(ent.members, now, p.opt.Capacity, p.legs)
	if !ok {
		// Unreachable while now <= expiry (the cost-only DP just accepted
		// this set); defensive so a caller bug degrades to "no group".
		return nil
	}
	if p.cache != nil {
		p.cache.stats.PlansMaterialized++
	}
	ent.group = &order.Group{Orders: ent.members, Plan: plan}
	return ent.group
}

// avgExtra is Group.AvgExtraTime computed straight from a cache entry's
// service-time row — the same order.ExtraTime terms in the same
// accumulation order (members are the group's Orders), so the two produce
// the same bits.
func avgExtra(members []*order.Order, svc []float64, now, alpha, beta float64) float64 {
	var sum float64
	for i, o := range members {
		sum += o.ExtraTime(svc[i], now, alpha, beta)
	}
	return sum / float64(len(members))
}

// evictOrder drops every cache entry and leg block involving the order;
// called whenever a node leaves the pool.
func (p *Pool) evictOrder(id int) {
	if p.legs != nil {
		p.legs.Evict(id)
	}
	if p.cache == nil {
		return
	}
	for _, key := range p.cache.byOrder[id] {
		if _, ok := p.cache.entries[key]; ok {
			delete(p.cache.entries, key)
			p.cache.stats.Evicted++
		}
	}
	delete(p.cache.byOrder, id)
}

// CacheStats returns a snapshot of plan-cache counters (zero-valued when
// the cache is disabled).
func (p *Pool) CacheStats() CacheStats {
	if p.cache == nil {
		return CacheStats{}
	}
	return p.cache.stats
}

// CachedPlans reports the number of live plan-cache entries.
func (p *Pool) CachedPlans() int {
	if p.cache == nil {
		return 0
	}
	return len(p.cache.entries)
}

// LegBlocks reports the number of live per-pair leg blocks.
func (p *Pool) LegBlocks() int {
	if p.legs == nil {
		return 0
	}
	return p.legs.Len()
}
