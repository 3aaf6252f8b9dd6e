package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"watter/internal/geo"
)

// oneWayCity is a perturbed w x h grid with one-way rows — even rows run
// east, odd rows west — and two-way columns: strongly connected, but
// cost(u, v) != cost(v, u) almost everywhere.
func oneWayCity(w, h int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	var b GraphBuilder
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			b.AddNode(geo.Point{X: float64(x) * 100, Y: float64(y) * 100})
		}
	}
	node := func(x, y int) geo.NodeID { return geo.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				if y%2 == 0 {
					b.AddEdge(node(x, y), node(x+1, y), 10*(1+rng.Float64()))
				} else {
					b.AddEdge(node(x+1, y), node(x, y), 10*(1+rng.Float64()))
				}
			}
			if y+1 < h {
				b.AddBidirectional(node(x, y), node(x, y+1), 10*(1+rng.Float64()))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestAppendCostRowMatchesSSSP: every entry of a row must carry the same
// bits as the reference Dijkstra's answer for that pair, +Inf included,
// on jittered, one-way and disconnected cities (with and without
// landmarks), and appending must leave dst's prefix alone.
func TestAppendCostRowMatchesSSSP(t *testing.T) {
	cities := map[string]*Graph{
		"tiny":    NewPerturbedGrid(4, 5, 150, 8, 0.4, 1), // no landmarks
		"jitter":  NewPerturbedGrid(13, 11, 150, 8, 0.4, 2),
		"uniform": NewPerturbedGrid(9, 9, 150, 8, 0, 3),
		"oneway":  oneWayCity(10, 9, 4),
	}
	split, _ := twoComponentCity(6, 5, 5)
	cities["split"] = split
	for name, g := range cities {
		n := g.NumNodes()
		prefix := []float32{-1, -2}
		rng := rand.New(rand.NewSource(int64(n)))
		inf := 0
		for trial := 0; trial < 12; trial++ {
			src := geo.NodeID(rng.Intn(n))
			row, ok := g.AppendCostRow(prefix, src)
			if !ok {
				t.Fatalf("%s: ALT graph refused a row", name)
			}
			if len(row) != len(prefix)+n || row[0] != -1 || row[1] != -2 {
				t.Fatalf("%s: row has len %d / prefix %v, want %d entries after an intact prefix", name, len(row), row[:2], n)
			}
			for v := 0; v < n; v++ {
				got, want := float64(row[len(prefix)+v]), g.CostSSSP(src, geo.NodeID(v))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: row(%d)[%d] = %v, CostSSSP = %v", name, src, v, got, want)
				}
				if math.IsInf(got, 1) {
					inf++
				}
			}
		}
		if name == "split" && inf == 0 {
			t.Fatalf("split city produced no +Inf entries; the unreachable case went untested")
		}
	}
}

// TestAppendCostRowRefusedUnderCH: a hierarchy-backed graph answers no
// rows and must hand dst back untouched.
func TestAppendCostRowRefusedUnderCH(t *testing.T) {
	g := NewPerturbedGrid(8, 8, 150, 8, 0.3, 6)
	g.EnableHierarchy()
	dst := make([]float32, 3, 16)
	row, ok := g.AppendCostRow(dst, 0)
	if ok || len(row) != 3 || &row[0] != &dst[0] {
		t.Fatalf("CH graph answered a row: ok=%v len=%d", ok, len(row))
	}
}
