package route

import (
	"math"
	"math/rand"
	"testing"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// randomGroup builds k random orders with enough deadline slack that most
// groups are feasible but some are not.
// IDs are unique across calls: LegStore/plan-cache keys are order IDs, and
// live IDs are unique in any real pool.
var nextTestID int

func randomGroup(net roadnet.Network, rng *rand.Rand, side, k int) []*order.Order {
	orders := make([]*order.Order, 0, k)
	cx, cy := rng.Intn(side), rng.Intn(side)
	pick := func() geo.NodeID {
		x := min(max(cx+rng.Intn(9)-4, 0), side-1)
		y := min(max(cy+rng.Intn(9)-4, 0), side-1)
		return geo.NodeID(y*side + x)
	}
	for i := 0; i < k; i++ {
		pu, do := pick(), pick()
		if pu == do {
			do = geo.NodeID((int(do) + 1) % (side * side))
		}
		direct := net.Cost(pu, do)
		nextTestID++
		orders = append(orders, &order.Order{
			ID: nextTestID, Pickup: pu, Dropoff: do, Riders: 1,
			Release: 0, Deadline: (1.2 + rng.Float64()) * direct,
			WaitLimit: 0.8 * direct, DirectCost: direct,
		})
	}
	return orders
}

func plansEqual(a, b *order.RoutePlan) bool {
	if a.Cost != b.Cost || len(a.Stops) != len(b.Stops) {
		return false
	}
	for i := range a.Stops {
		if a.Stops[i] != b.Stops[i] || a.Arrive[i] != b.Arrive[i] {
			return false
		}
	}
	return true
}

// TestPlanGroupSharedMatchesFresh drives random groups on both network
// kinds and checks that store-assembled plans are bit-identical to plans
// built from fresh batched queries.
func TestPlanGroupSharedMatchesFresh(t *testing.T) {
	nets := map[string]roadnet.Network{
		"grid":  roadnet.NewGridCity(16, 16, 100, 10),
		"graph": roadnet.NewPerturbedGrid(16, 16, 150, 8, 0.3, 7),
	}
	for name, net := range nets {
		p := NewPlanner(net)
		store := NewLegStore(net)
		rng := rand.New(rand.NewSource(11))
		feasible := 0
		for trial := 0; trial < 120; trial++ {
			orders := randomGroup(net, rng, 16, 2+rng.Intn(3))
			fresh, okFresh := p.PlanGroup(orders, 0, 4)
			shared, okShared := p.PlanGroupShared(orders, 0, 4, store)
			if okFresh != okShared {
				t.Fatalf("%s trial %d: feasibility diverged fresh=%v shared=%v", name, trial, okFresh, okShared)
			}
			if !okFresh {
				continue
			}
			feasible++
			if !plansEqual(fresh, shared) {
				t.Fatalf("%s trial %d: store-assembled plan diverged:\nfresh:  %+v\nshared: %+v", name, trial, fresh, shared)
			}
			// Replan through the now-warm blocks: the reuse path must give
			// the same bits as the fill path.
			again, okAgain := p.PlanGroupShared(orders, 0, 4, store)
			if !okAgain || !plansEqual(fresh, again) {
				t.Fatalf("%s trial %d: warm-block replan diverged", name, trial)
			}
		}
		if feasible == 0 {
			t.Fatalf("%s: no feasible trials, test is vacuous", name)
		}
		if hits, fills := store.Stats(); hits == 0 || fills == 0 {
			t.Fatalf("%s: store never exercised (hits=%d fills=%d)", name, hits, fills)
		}
	}
}

// TestPlanGroupCostMatchesPlanGroup checks the cost-only fast path returns
// exactly the cost, per-member service times and τg the materializing path
// produces, with and without a LegStore.
func TestPlanGroupCostMatchesPlanGroup(t *testing.T) {
	net := roadnet.NewPerturbedGrid(14, 14, 150, 8, 0.3, 3)
	p := NewPlanner(net)
	store := NewLegStore(net)
	rng := rand.New(rand.NewSource(5))
	svc := make([]float64, MaxGroupSize)
	feasible := 0
	for trial := 0; trial < 150; trial++ {
		orders := randomGroup(net, rng, 14, 1+rng.Intn(4))
		var legs *LegStore
		if trial%2 == 0 {
			legs = store
		}
		plan, okPlan := p.PlanGroup(orders, 0, 4)
		cost, expiry, okCost := p.PlanGroupCost(orders, 0, 4, legs, svc)
		if okPlan != okCost {
			t.Fatalf("trial %d: feasibility diverged plan=%v cost=%v", trial, okPlan, okCost)
		}
		if !okPlan {
			continue
		}
		feasible++
		if cost != plan.Cost {
			t.Fatalf("trial %d: cost %v != plan cost %v", trial, cost, plan.Cost)
		}
		wantExpiry := math.Inf(1)
		for i, o := range orders {
			st, ok := plan.ServiceTime(o.ID)
			if !ok {
				t.Fatalf("trial %d: plan misses member %d", trial, o.ID)
			}
			if svc[i] != st {
				t.Fatalf("trial %d: svc[%d]=%v != plan service %v", trial, i, svc[i], st)
			}
			if e := o.Deadline - st; e < wantExpiry {
				wantExpiry = e
			}
		}
		if expiry != wantExpiry {
			t.Fatalf("trial %d: expiry %v != %v", trial, expiry, wantExpiry)
		}
	}
	if feasible < 20 {
		t.Fatalf("only %d feasible trials, test is weak", feasible)
	}
}

// TestLegStoreEvict checks eviction drops every block involving the order
// and that re-queries refill rather than resurrect.
func TestLegStoreEvict(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	store := NewLegStore(net)
	mkO := func(id int, pu, do geo.NodeID) *order.Order {
		return &order.Order{ID: id, Pickup: pu, Dropoff: do, Riders: 1, Deadline: 1e9, DirectCost: net.Cost(pu, do)}
	}
	a, b, c := mkO(1, 0, 5), mkO(2, 10, 15), mkO(3, 20, 25)
	store.block(a, b)
	store.block(b, a) // same pair, swapped: must hit, not refill
	store.block(a, c)
	store.block(b, c)
	if store.Len() != 3 {
		t.Fatalf("blocks = %d, want 3", store.Len())
	}
	if hits, fills := store.Stats(); hits != 1 || fills != 3 {
		t.Fatalf("hits=%d fills=%d, want 1/3", hits, fills)
	}
	store.Evict(2)
	if store.Len() != 1 {
		t.Fatalf("blocks after evict = %d, want 1 (only a-c)", store.Len())
	}
	store.Evict(1)
	store.Evict(3)
	if store.Len() != 0 {
		t.Fatalf("blocks after full evict = %d", store.Len())
	}
	_, fillsBefore := store.Stats()
	store.block(a, b)
	if _, fills := store.Stats(); fills != fillsBefore+1 {
		t.Fatal("evicted block was resurrected instead of refilled")
	}
}
