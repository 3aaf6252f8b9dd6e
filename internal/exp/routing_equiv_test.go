package exp

import (
	"math"
	"math/rand"
	"testing"

	"watter/internal/baseline"
	"watter/internal/core"
	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/sim"
	"watter/internal/strategy"
)

// graphWorkload generates a deterministic order stream and fleet over an
// explicit Graph city (the sweep profiles use the closed-form GridCity, so
// this test builds its own city to exercise the routing engine end to end).
// Orders whose dropoff is unreachable from their pickup are skipped.
func graphWorkload(g *roadnet.Graph, n, m int, seed int64) ([]*order.Order, []*order.Worker) {
	rng := rand.New(rand.NewSource(seed))
	nodes := g.NumNodes()
	orders := make([]*order.Order, 0, n)
	for i := 0; i < n; i++ {
		pu := geo.NodeID(rng.Intn(nodes))
		do := geo.NodeID(rng.Intn(nodes))
		if pu == do {
			continue
		}
		direct := g.Cost(pu, do)
		if math.IsInf(direct, 1) {
			continue
		}
		release := float64(rng.Intn(400))
		orders = append(orders, &order.Order{
			ID: i + 1, Pickup: pu, Dropoff: do, Riders: 1,
			Release: release, Deadline: release + 2.5*direct + 60,
			WaitLimit: 0.8 * direct, DirectCost: direct,
		})
	}
	workers := make([]*order.Worker, m)
	for i := range workers {
		workers[i] = &order.Worker{
			ID: i + 1, Loc: geo.NodeID(rng.Intn(nodes)), Capacity: 2 + rng.Intn(3),
		}
	}
	return orders, workers
}

// strandedOneWayCity is two interleaved w x h grids with no edge between
// them — every cross-component cost is +Inf — whose rows are one-way
// (even rows east, odd rows west) under two-way columns. Orders and
// workers land in both components, so the pool pair-tests orders that
// cannot reach each other and the dispatcher meets unreachable workers.
func strandedOneWayCity(w, h int, seed int64) *roadnet.Graph {
	rng := rand.New(rand.NewSource(seed))
	var b roadnet.GraphBuilder
	for c := 0; c < 2; c++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				off := float64(c) * 75
				b.AddNode(geo.Point{X: float64(x)*150 + off, Y: float64(y)*150 + off})
			}
		}
	}
	node := func(c, x, y int) geo.NodeID { return geo.NodeID(c*w*h + y*w + x) }
	for c := 0; c < 2; c++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if x+1 < w {
					from, to := node(c, x, y), node(c, x+1, y)
					if y%2 == 1 {
						from, to = to, from
					}
					b.AddEdge(from, to, 18.75*(0.7+0.6*rng.Float64()))
				}
				if y+1 < h {
					b.AddBidirectional(node(c, x, y), node(c, x, y+1), 18.75*(0.7+0.6*rng.Float64()))
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestSimMetricsEngineEquivalence is the end-to-end acceptance test for the
// routing engine: a full simulation over a Graph-backed city must produce
// bit-identical Metrics whether Cost is answered by the graph's engine
// (with the pool's pair tests read out of per-order rows) or by
// roadnet.Reference, the uncached full Dijkstra. The stranded city adds
// unreachable pairs and one-way streets, so +Inf block entries and
// asymmetric costs flow through the whole pipeline. Wall-clock fields are
// the documented exception.
func TestSimMetricsEngineEquivalence(t *testing.T) {
	algs := map[string]func() sim.Algorithm{
		"WATTER-online":  func() sim.Algorithm { return core.New(strategy.Online{}, pool.DefaultOptions()) },
		"WATTER-timeout": func() sim.Algorithm { return core.New(strategy.Timeout{Tick: 10}, pool.DefaultOptions()) },
		"GDP":            func() sim.Algorithm { return &baseline.GDP{} },
		"GAS":            func() sim.Algorithm { return &baseline.GAS{BatchSeconds: 5} },
	}
	cities := map[string]struct {
		build  func() *roadnet.Graph
		orders int
	}{
		"lattice":  {func() *roadnet.Graph { return roadnet.NewPerturbedGrid(12, 12, 150, 8, 0.3, 4) }, 80},
		"stranded": {func() *roadnet.Graph { return strandedOneWayCity(9, 8, 4) }, 160},
	}
	for name, mk := range algs {
		t.Run(name, func(t *testing.T) {
			for cityName, city := range cities {
				t.Run(cityName, func(t *testing.T) {
					run := func(useReference bool) sim.Metrics {
						g := city.build()
						orders, workers := graphWorkload(g, city.orders, 15, 9)
						var net roadnet.Network = g
						if useReference {
							net = roadnet.Reference(g)
						}
						env := sim.NewEnv(net, workers, sim.DefaultConfig())
						opts := sim.DefaultRunOptions()
						opts.MeasureTime = false
						return *sim.Run(env, mk(), orders, opts)
					}
					engine := run(false)
					reference := run(true)
					engine.DecisionSeconds, reference.DecisionSeconds = 0, 0
					if engine != reference {
						t.Fatalf("metrics diverged between engine and reference oracle:\nengine:    %+v\nreference: %+v", engine, reference)
					}
					if engine.Served == 0 {
						t.Fatal("degenerate run: nothing served, equivalence is vacuous")
					}
					if rate := engine.ServiceRate(); math.IsNaN(rate) {
						t.Fatal("NaN service rate")
					}
				})
			}
		})
	}
}

// TestStrandedCityWorkloadSpansComponents guards the stranded case above
// against going vacuous: its orders must start in both components, which
// cannot reach each other.
func TestStrandedCityWorkloadSpansComponents(t *testing.T) {
	g := strandedOneWayCity(9, 8, 4)
	orders, _ := graphWorkload(g, 160, 15, 9)
	half := geo.NodeID(g.NumNodes() / 2)
	var first, second *order.Order
	for _, o := range orders {
		if o.Pickup < half {
			first = o
		} else {
			second = o
		}
	}
	if len(orders) < 60 || first == nil || second == nil {
		t.Fatalf("%d orders, not spread over both components", len(orders))
	}
	if c := g.Cost(first.Pickup, second.Pickup); !math.IsInf(c, 1) {
		t.Fatalf("pickups %d and %d sit in different components yet cost %v", first.Pickup, second.Pickup, c)
	}
}
