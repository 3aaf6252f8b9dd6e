package route

import (
	"math"
	"math/rand"
	"testing"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// rowCities returns ALT-engine graphs covering the shapes a row must get
// exactly right: jittered grids (with and without landmarks), one-way
// streets (asymmetric costs) and two interleaved components with no edge
// between them (+Inf entries).
func rowCities() map[string]*roadnet.Graph {
	cities := map[string]*roadnet.Graph{
		"tiny":   roadnet.NewPerturbedGrid(4, 6, 150, 8, 0.4, 1),
		"jitter": roadnet.NewPerturbedGrid(14, 12, 150, 8, 0.4, 2),
	}
	build := func(comps, w, h int, oneWay bool, seed int64) *roadnet.Graph {
		rng := rand.New(rand.NewSource(seed))
		var b roadnet.GraphBuilder
		for c := 0; c < comps; c++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					off := float64(c) * 50 // interleave the components' cells
					b.AddNode(geo.Point{X: float64(x)*100 + off, Y: float64(y)*100 + off})
				}
			}
		}
		node := func(c, x, y int) geo.NodeID { return geo.NodeID(c*w*h + y*w + x) }
		for c := 0; c < comps; c++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if x+1 < w {
						sec := 10 * (1 + rng.Float64())
						switch {
						case !oneWay:
							b.AddBidirectional(node(c, x, y), node(c, x+1, y), sec)
						case y%2 == 0:
							b.AddEdge(node(c, x, y), node(c, x+1, y), sec)
						default:
							b.AddEdge(node(c, x+1, y), node(c, x, y), sec)
						}
					}
					if y+1 < h {
						b.AddBidirectional(node(c, x, y), node(c, x, y+1), 10*(1+rng.Float64()))
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
	cities["oneway"] = build(1, 11, 10, true, 3)
	cities["split"] = build(2, 7, 6, false, 4)
	cities["split-oneway"] = build(2, 7, 6, true, 5)
	return cities
}

// randomOrders places orders anywhere on the graph — across components
// too, so some blocks hold +Inf entries.
func randomOrders(g *roadnet.Graph, rng *rand.Rand, k int) []*order.Order {
	out := make([]*order.Order, k)
	for i := range out {
		nextTestID++
		out[i] = &order.Order{
			ID:     nextTestID,
			Pickup: geo.NodeID(rng.Intn(g.NumNodes())), Dropoff: geo.NodeID(rng.Intn(g.NumNodes())),
			Riders: 1, Deadline: 1e9,
		}
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestRowBlocksMatchSearch is the row path's exactness property test: a
// block read out of two orders' rows must carry the same bits as the ALT
// engine's batched FillCostMatrix block and as the reference Dijkstra
// (CostSSSP) entry by entry, +Inf included.
func TestRowBlocksMatchSearch(t *testing.T) {
	for name, g := range rowCities() {
		rng := rand.New(rand.NewSource(int64(g.NumNodes())))
		orders := randomOrders(g, rng, 24)
		store := NewLegStore(g)
		infs := 0
		for trial := 0; trial < 150; trial++ {
			a, b := orders[rng.Intn(len(orders))], orders[rng.Intn(len(orders))]
			if a == b {
				continue
			}
			store.PreparePair(a, b)
			blk, swapped := store.block(a, b)
			lo, hi := a, b
			if swapped {
				lo, hi = b, a
			}
			var viaRows legBlock
			if !store.rowBlock(lo, hi, &viaRows) {
				t.Fatalf("%s: prepared pair (%d,%d) has no rows", name, lo.ID, hi.ID)
			}
			locs := []geo.NodeID{lo.Pickup, lo.Dropoff, hi.Pickup, hi.Dropoff}
			var searched legBlock
			roadnet.FillCostMatrix(g, locs, locs, searched[:])
			for i := range searched {
				ref := g.CostSSSP(locs[i/4], locs[i%4])
				if !sameBits(blk[i], searched[i]) || !sameBits(viaRows[i], searched[i]) || !sameBits(searched[i], ref) {
					t.Fatalf("%s: pair (%d,%d) entry %d: store %v, rows %v, FillCostMatrix %v, CostSSSP %v",
						name, lo.ID, hi.ID, i, blk[i], viaRows[i], searched[i], ref)
				}
				if math.IsInf(ref, 1) {
					infs++
				}
			}
		}
		if got := store.RowsFilled(); got == 0 || got > uint64(len(orders)) {
			t.Fatalf("%s: %d row fills for %d orders, want each order filled at most once", name, got, len(orders))
		}
		if (name == "split" || name == "split-oneway") && infs == 0 {
			t.Fatalf("%s: no +Inf entries met; the unreachable case went untested", name)
		}
	}
}

// TestRowsRecycledAfterEvict: an evicted order's rows go to the free list
// and the next order's rows reuse that storage, overwriting every stale
// entry — the two orders sit in different components, so a missed
// overwrite would leave a finite value where +Inf belongs or vice versa.
func TestRowsRecycledAfterEvict(t *testing.T) {
	g := rowCities()["split-oneway"]
	half := g.NumNodes() / 2
	store := NewLegStore(g)
	mkO := func(id int, pu, do geo.NodeID) *order.Order {
		return &order.Order{ID: id, Pickup: pu, Dropoff: do, Riders: 1, Deadline: 1e9}
	}
	a := mkO(1, 3, geo.NodeID(half-2))                  // component 0
	b := mkO(2, geo.NodeID(half+1), 5)                  // straddles both
	c := mkO(3, geo.NodeID(half+4), geo.NodeID(half+9)) // component 1
	store.PreparePair(a, b)
	first := &store.rows.of[a.ID][0]
	store.block(a, b)
	store.Evict(a.ID)
	if _, ok := store.rows.of[a.ID]; ok || len(store.rows.free) != 1 {
		t.Fatalf("evicted order kept its rows (free list %d)", len(store.rows.free))
	}
	store.PreparePair(c, b)
	row := store.rows.of[c.ID]
	if &row[0] != first {
		t.Fatal("rows were not reused from the free list")
	}
	n := g.NumNodes()
	for i, src := range []geo.NodeID{c.Pickup, c.Dropoff} {
		for v := 0; v < n; v++ {
			if got, want := float64(row[i*n+v]), g.CostSSSP(src, geo.NodeID(v)); !sameBits(got, want) {
				t.Fatalf("recycled row %d entry %d = %v, want %v (stale data survived)", i, v, got, want)
			}
		}
	}
	if got := store.RowsFilled(); got != 3 {
		t.Fatalf("RowsFilled = %d, want 3", got)
	}
}

// TestRowBlockFillAllocatesNothing: once the free list is warm, refilling
// an order pair's rows and reading a block out of them allocates nothing.
func TestRowBlockFillAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := roadnet.NewPerturbedGrid(12, 12, 150, 8, 0.3, 9)
	store := NewLegStore(g)
	a := &order.Order{ID: 1, Pickup: 3, Dropoff: 100, Riders: 1, Deadline: 1e9}
	b := &order.Order{ID: 2, Pickup: 40, Dropoff: 7, Riders: 1, Deadline: 1e9}
	cycle := func() {
		store.PreparePair(a, b)
		var blk legBlock
		if !store.rowBlock(a, b, &blk) {
			panic("no rows after PreparePair")
		}
		store.Evict(a.ID)
		store.Evict(b.ID)
	}
	cycle() // warms the free list and the engine's pooled scratch
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("row refill + block fill allocated %.1f times per run, want 0", allocs)
	}
}

// TestRowsOffWithoutRowEngine: a hierarchy-backed graph refuses rows, and
// the store falls back to exact batched queries for good; GridCity and
// roadnet.Reference implement no row fill at all.
func TestRowsOffWithoutRowEngine(t *testing.T) {
	ch := roadnet.NewPerturbedGrid(10, 10, 150, 8, 0.3, 8)
	ch.EnableHierarchy()
	plain := roadnet.NewPerturbedGrid(10, 10, 150, 8, 0.3, 8)
	a := &order.Order{ID: 1, Pickup: 4, Dropoff: 77, Riders: 1, Deadline: 1e9}
	b := &order.Order{ID: 2, Pickup: 50, Dropoff: 9, Riders: 1, Deadline: 1e9}

	store := NewLegStore(ch)
	store.PreparePair(a, b)
	if store.rows != nil || store.RowsFilled() != 0 {
		t.Fatal("CH-backed store kept rows on")
	}
	blk, _ := store.block(a, b)
	locs := []geo.NodeID{a.Pickup, a.Dropoff, b.Pickup, b.Dropoff}
	for i := range blk {
		if want := plain.CostSSSP(locs[i/4], locs[i%4]); !sameBits(blk[i], want) {
			t.Fatalf("CH block entry %d = %v, want %v", i, blk[i], want)
		}
	}
	for name, net := range map[string]roadnet.Network{
		"grid":      roadnet.NewGridCity(10, 10, 100, 10),
		"reference": roadnet.Reference(plain),
	} {
		if s := NewLegStore(net); s.rows != nil {
			t.Fatalf("%s: store is row-backed", name)
		}
	}
}
