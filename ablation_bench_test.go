package watter

import (
	"fmt"
	"math/rand"
	"testing"

	"watter/internal/dataset"
	"watter/internal/exp"
	"watter/internal/geo"
	"watter/internal/gridindex"
	"watter/internal/order"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/route"
)

// BenchmarkCliqueEnum compares grouping bounds (DESIGN.md §5): pair-only
// (max group 2) against capacity-bounded clique enumeration (4). The
// trade-off is pool maintenance cost vs group quality.
func BenchmarkCliqueEnum(b *testing.B) {
	for _, bound := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("maxGroup=%d", bound), func(b *testing.B) {
			base := exp.DefaultParams(dataset.CDC())
			base.Orders = 500
			base.Workers = 45
			runner := exp.NewRunner()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alg, err := runner.Build("WATTER-timeout", base)
				if err != nil {
					b.Fatal(err)
				}
				type optSetter interface{ SetMaxGroupSize(int) }
				alg.(optSetter).SetMaxGroupSize(bound)
				city, orders, workers := exp.Workload(base)
				env := NewEnvironment(city.Net, workers, DefaultConfig())
				m := Run(env, alg, orders, RunOptions{TickEvery: 10})
				b.ReportMetric(m.AvgGroupSize(), "avg-group")
				b.ReportMetric(m.UnifiedCost(), "unified-cost")
			}
		})
	}
}

// BenchmarkPoolMaintenance measures raw shareability-graph throughput:
// inserts with periodic expiry against pools of different densities.
func BenchmarkPoolMaintenance(b *testing.B) {
	net := roadnet.NewGridCity(40, 40, 150, 8)
	planner := route.NewPlanner(net)
	ix := gridindex.New(net, 10)
	for _, density := range []int{64, 256} {
		b.Run(fmt.Sprintf("pool=%d", density), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			p := pool.New(planner, ix, pool.DefaultOptions())
			// Pre-fill to the target density.
			now := 0.0
			id := 0
			mk := func() *order.Order {
				id++
				pu := net.Node(rng.Intn(40), rng.Intn(40))
				do := net.Node(rng.Intn(40), rng.Intn(40))
				if pu == do {
					do = net.Node((rng.Intn(39) + 1), rng.Intn(40))
				}
				direct := net.Cost(pu, do)
				return &order.Order{
					ID: id, Pickup: pu, Dropoff: do, Riders: 1,
					Release: now, Deadline: now + 1.8*direct, WaitLimit: 0.8 * direct,
					DirectCost: direct,
				}
			}
			for p.Len() < density {
				p.Insert(mk(), now)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				now += 1
				o := mk()
				p.Insert(o, now)
				p.Remove(o.ID, now) // keep density constant
				if i%64 == 0 {
					for _, dead := range p.ExpireEdges(now) {
						p.Remove(dead, now)
					}
					for p.Len() < density {
						p.Insert(mk(), now)
					}
				}
			}
		})
	}
}

// BenchmarkOracle compares the travel-time oracles: the closed-form grid
// metric, an explicit graph's query engine (ALT at this size) and the
// uncached reference Dijkstra it is validated against.
func BenchmarkOracle(b *testing.B) {
	queries := func(n int) []geo.NodeID {
		rng := rand.New(rand.NewSource(3))
		out := make([]geo.NodeID, 1024)
		for i := range out {
			out[i] = geo.NodeID(rng.Intn(n))
		}
		return out
	}
	b.Run("grid-closed-form", func(b *testing.B) {
		net := roadnet.NewGridCity(40, 40, 150, 8)
		qs := queries(net.NumNodes())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Cost(qs[i%1024], qs[(i*7+3)%1024])
		}
	})
	b.Run("graph-engine", func(b *testing.B) {
		net := roadnet.NewPerturbedGrid(40, 40, 150, 8, 0.3, 1)
		qs := queries(net.NumNodes())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Cost(qs[i%1024], qs[(i*7+3)%1024])
		}
	})
	b.Run("dijkstra-reference", func(b *testing.B) {
		net := roadnet.NewPerturbedGrid(40, 40, 150, 8, 0.3, 1)
		qs := queries(net.NumNodes())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.CostSSSP(qs[i%1024], qs[(i*7+3)%1024])
		}
	})
}
