package roadnet

import (
	"math"
	"testing"
	"testing/quick"

	"watter/internal/geo"
)

func TestExampleNetworkDistances(t *testing.T) {
	g := NewExampleNetwork()
	idx := map[string]geo.NodeID{}
	for i, name := range ExampleNodes {
		idx[name] = geo.NodeID(i)
	}
	// Distances (in minutes) the paper's Example 1 depends on.
	want := []struct {
		u, v string
		min  float64
	}{
		{"a", "c", 2}, {"a", "d", 1}, {"c", "d", 3}, {"d", "e", 1},
		{"e", "f", 1}, {"d", "f", 2}, {"a", "b", 1}, {"b", "c", 1},
		{"d", "c", 3}, {"f", "d", 2},
	}
	for _, w := range want {
		got := g.Cost(idx[w.u], idx[w.v]) / 60
		if math.Abs(got-w.min) > 1e-9 {
			t.Errorf("cost(%s,%s) = %v minutes, want %v", w.u, w.v, got, w.min)
		}
	}
}

func TestExampleNetworkSymmetric(t *testing.T) {
	g := NewExampleNetwork()
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if d1, d2 := g.Cost(geo.NodeID(u), geo.NodeID(v)), g.Cost(geo.NodeID(v), geo.NodeID(u)); d1 != d2 {
				t.Fatalf("asymmetric cost(%d,%d)=%v vs %v", u, v, d1, d2)
			}
		}
	}
}

func TestGridCityMatchesExplicitGraph(t *testing.T) {
	c := NewGridCity(7, 5, 200, 8)
	g := c.AsGraph()
	if c.NumNodes() != g.NumNodes() {
		t.Fatalf("node count mismatch: %d vs %d", c.NumNodes(), g.NumNodes())
	}
	for u := 0; u < c.NumNodes(); u++ {
		for v := 0; v < c.NumNodes(); v++ {
			cu, cv := geo.NodeID(u), geo.NodeID(v)
			if closed, dij := c.Cost(cu, cv), g.Cost(cu, cv); math.Abs(closed-dij) > 1e-4 {
				t.Fatalf("cost(%d,%d): closed-form %v vs dijkstra %v", u, v, closed, dij)
			}
		}
	}
}

func TestGridCityTriangleInequality(t *testing.T) {
	c := NewGridCity(30, 30, 150, 10)
	n := uint32(c.NumNodes())
	f := func(a, b, x uint32) bool {
		na := geo.NodeID(a % n)
		nb := geo.NodeID(b % n)
		nc := geo.NodeID(x % n)
		return TriangleSlack(c, na, nb, nc) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphTriangleInequality(t *testing.T) {
	g := NewPerturbedGrid(10, 10, 200, 8, 0.4, 42)
	n := uint32(g.NumNodes())
	f := func(a, b, x uint32) bool {
		na := geo.NodeID(a % n)
		nb := geo.NodeID(b % n)
		nc := geo.NodeID(x % n)
		return TriangleSlack(g, na, nb, nc) <= 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphPathCostConsistency(t *testing.T) {
	g := NewPerturbedGrid(8, 8, 200, 8, 0.3, 7)
	for u := 0; u < g.NumNodes(); u += 5 {
		for v := 0; v < g.NumNodes(); v += 7 {
			path := g.Path(geo.NodeID(u), geo.NodeID(v))
			if path == nil {
				t.Fatalf("no path %d->%d in connected grid", u, v)
			}
			if path[0] != geo.NodeID(u) || path[len(path)-1] != geo.NodeID(v) {
				t.Fatalf("path endpoints wrong: %v", path)
			}
			var sum float64
			for i := 0; i+1 < len(path); i++ {
				step := g.Cost(path[i], path[i+1])
				sum += step
			}
			if want := g.Cost(geo.NodeID(u), geo.NodeID(v)); math.Abs(sum-want) > 1e-3 {
				t.Fatalf("path cost %v != direct cost %v for %d->%d", sum, want, u, v)
			}
		}
	}
}

func TestGridCityPath(t *testing.T) {
	c := NewGridCity(6, 6, 100, 10)
	from, to := c.Node(1, 1), c.Node(4, 3)
	path := c.Path(from, to)
	wantLen := 1 + 3 + 2 // start + dx + dy
	if len(path) != wantLen {
		t.Fatalf("path length %d, want %d", len(path), wantLen)
	}
	for i := 0; i+1 < len(path); i++ {
		if c.Cost(path[i], path[i+1])*c.Speed != c.CellMeters {
			t.Fatalf("non-adjacent step %v -> %v", path[i], path[i+1])
		}
	}
}

func TestGraphConcurrentCost(t *testing.T) {
	g := NewPerturbedGrid(10, 10, 100, 10, 0.2, 3)
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- true }()
			for i := 0; i < 200; i++ {
				u := geo.NodeID((w*31 + i) % g.NumNodes())
				v := geo.NodeID((w*17 + i*3) % g.NumNodes())
				if d := g.Cost(u, v); d < 0 {
					t.Errorf("negative distance %v", d)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

func TestValidateNode(t *testing.T) {
	c := NewGridCity(3, 3, 100, 10)
	if err := ValidateNode(c, 0); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := ValidateNode(c, 8); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := ValidateNode(c, 9); err == nil {
		t.Fatal("want error for out-of-range node")
	}
	if err := ValidateNode(c, -1); err == nil {
		t.Fatal("want error for negative node")
	}
}

func TestBuilderErrors(t *testing.T) {
	var b GraphBuilder
	if _, err := b.Build(); err == nil {
		t.Fatal("want error for empty graph")
	}
	var b2 GraphBuilder
	n := b2.AddNode(geo.Point{})
	b2.AddEdge(n, 5, 10)
	if _, err := b2.Build(); err == nil {
		t.Fatal("want error for dangling edge")
	}
	var b3 GraphBuilder
	u := b3.AddNode(geo.Point{})
	v := b3.AddNode(geo.Point{X: 1})
	b3.AddEdge(u, v, -1)
	if _, err := b3.Build(); err == nil {
		t.Fatal("want error for negative edge cost")
	}
}

func TestBounds(t *testing.T) {
	c := NewGridCity(4, 3, 250, 10)
	r := c.Bounds()
	if r.Min != (geo.Point{}) {
		t.Fatalf("min = %v", r.Min)
	}
	if r.Max.X != 750 || r.Max.Y != 500 {
		t.Fatalf("max = %v", r.Max)
	}
	if !r.Contains(geo.Point{X: 100, Y: 100}) {
		t.Fatal("contains failed")
	}
}

func BenchmarkGridCityCost(b *testing.B) {
	c := NewGridCity(100, 100, 200, 8)
	n := geo.NodeID(c.NumNodes())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Cost(geo.NodeID(i)%n, geo.NodeID(i*7)%n)
	}
}
