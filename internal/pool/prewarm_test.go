package pool

import (
	"math/rand"
	"sync"
	"testing"

	"watter/internal/geo"
	"watter/internal/gridindex"
	"watter/internal/order"
	"watter/internal/roadnet"
	"watter/internal/route"
)

// reverseExec runs tasks back to front — an adversarial scheduling the
// merge must be immune to (results are pure, the merge order is fixed).
type reverseExec struct{ ran int }

func (e *reverseExec) Run(tasks []func()) {
	for i := len(tasks) - 1; i >= 0; i-- {
		tasks[i]()
	}
	e.ran += len(tasks)
}

// goExec runs every task on its own goroutine and waits for them all:
// real concurrency, so the race detector sees tasks reading shared state.
type goExec struct{ ran int }

func (e *goExec) Run(tasks []func()) {
	var wg sync.WaitGroup
	for _, task := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task()
		}()
	}
	wg.Wait()
	e.ran += len(tasks)
}

// TestPrewarmPairsDecisionsIdentical drives two pools through the same
// random insert/expire/remove trace — one prewarming every insert through
// an adversarially scheduled executor, one inserting cold — and requires
// identical shareability edges and bit-identical best groups throughout.
// The graph case has a row-backed leg store, and its tasks run
// concurrently: the coordinator fills the rows before they start, so
// both pools must compute exactly the same rows.
func TestPrewarmPairsDecisionsIdentical(t *testing.T) {
	t.Run("grid", func(t *testing.T) {
		exec := &reverseExec{}
		checkPrewarmIdentical(t, func() lattice { return roadnet.NewGridCity(20, 20, 100, 10) }, exec, &exec.ran)
	})
	t.Run("graph", func(t *testing.T) {
		exec := &goExec{}
		checkPrewarmIdentical(t, func() lattice { return roadnet.NewPerturbedLattice(20, 20, 100, 10, 0.3, 3) }, exec, &exec.ran)
	})
}

// lattice is a network addressable by grid position.
type lattice interface {
	roadnet.Network
	Node(x, y int) geo.NodeID
}

func checkPrewarmIdentical(t *testing.T, mkNet func() lattice, exec Exec, ran *int) {
	newPool := func() *Pool {
		net := mkNet()
		opt := DefaultOptions()
		opt.CandidateRadius = 2
		return New(route.NewPlanner(net), gridindex.New(net, 10), opt)
	}
	warm, cold, net := newPool(), newPool(), mkNet()
	rng := rand.New(rand.NewSource(5))

	now := 0.0
	for id := 1; id <= 120; id++ {
		now += rng.Float64() * 8
		pu := net.Node(rng.Intn(20), rng.Intn(20))
		do := net.Node(rng.Intn(20), rng.Intn(20))
		if pu == do {
			continue
		}
		o := mk(net, id, pu, do, now, 1.4+rng.Float64())
		warm.PrewarmPairs(o, now, exec)
		aw := warm.Insert(o, now)
		warm.FlushPrewarmedNegatives()
		ac := cold.Insert(cloneOrder(o), now)
		if aw != ac {
			t.Fatalf("insert %d: warm added %d edges, cold %d", id, aw, ac)
		}
		if warm.CachedPlans() != cold.CachedPlans() {
			t.Fatalf("insert %d: warm cache holds %d entries, cold %d (prewarmed negatives must not outlive the insert)",
				id, warm.CachedPlans(), cold.CachedPlans())
		}
		if id%7 == 0 {
			for _, ex := range warm.ExpireEdges(now) {
				warm.Remove(ex, now)
			}
			for _, ex := range cold.ExpireEdges(now) {
				cold.Remove(ex, now)
			}
		}
		for _, oid := range warm.OrderIDs() {
			wg, we, wok := warm.BestGroup(oid)
			cg, ce, cok := cold.BestGroup(oid)
			if wok != cok || we != ce {
				t.Fatalf("order %d after insert %d: warm (ok=%v exp=%v) vs cold (ok=%v exp=%v)",
					oid, id, wok, we, cok, ce)
			}
			if wok && (wg.Plan.Cost != cg.Plan.Cost || wg.Key() != cg.Key()) {
				t.Fatalf("order %d: warm best %s cost %v, cold best %s cost %v",
					oid, wg.Key(), wg.Plan.Cost, cg.Key(), cg.Plan.Cost)
			}
		}
	}
	if *ran == 0 {
		t.Fatal("no prewarm task ever ran; the test exercised nothing")
	}
	// The warm pool must have answered inserts from prewarmed entries.
	if warm.CacheStats().Hits+warm.CacheStats().NegativeHits == 0 {
		t.Fatal("prewarmed entries were never hit")
	}
	// Prewarm fills rows on the coordinator, once per order: exactly the
	// rows a cold pool fills.
	wr, cr := warm.legs.RowsFilled(), cold.legs.RowsFilled()
	if wr != cr {
		t.Fatalf("warm pool filled %d order rows, cold %d", wr, cr)
	}
	if _, rowNet := net.(*roadnet.Lattice); rowNet && wr == 0 {
		t.Fatal("row-backed pool never filled a row")
	}
}

// cloneOrder keeps the two pools from sharing order pointers (the pool
// stores what it is given).
func cloneOrder(o *order.Order) *order.Order { c := *o; return &c }

// TestPrewarmDisabledCacheNoop: with the plan cache off there is nowhere
// to merge results, so prewarm must do nothing (the equivalence arms of
// the benchmarks rely on the uncached pool staying untouched).
func TestPrewarmDisabledCacheNoop(t *testing.T) {
	net := roadnet.NewGridCity(20, 20, 100, 10)
	planner := route.NewPlanner(net)
	ix := gridindex.New(net, 10)
	opt := DefaultOptions()
	opt.DisablePlanCache = true
	p := New(planner, ix, opt)
	exec := &reverseExec{}
	o := mk(net, 1, net.Node(0, 0), net.Node(5, 0), 0, 2)
	p.PrewarmPairs(o, 0, exec)
	if exec.ran != 0 {
		t.Fatalf("prewarm ran %d tasks with the cache disabled", exec.ran)
	}
	if p.CachedPlans() != 0 {
		t.Fatalf("disabled cache holds %d entries", p.CachedPlans())
	}
}
