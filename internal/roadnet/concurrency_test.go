package roadnet

import (
	"math/rand"
	"sync"
	"testing"

	"watter/internal/geo"
)

// TestGraphCostConcurrent hammers the query engine's pooled search state
// from many goroutines and cross-checks every answer against the lattice
// closed form. Run under -race this is the safety proof for the parallel
// sweep engine, which shares one Graph across all replicate runs.
func TestGraphCostConcurrent(t *testing.T) {
	city := NewGridCity(12, 12, 100, 5)
	g := city.AsGraph()

	const goroutines = 16
	const queries = 400
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			n := g.NumNodes()
			for q := 0; q < queries; q++ {
				from := geo.NodeID(rng.Intn(n))
				to := geo.NodeID(rng.Intn(n))
				got := g.Cost(from, to)
				want := city.Cost(from, to)
				if got != want {
					select {
					case errs <- "cost mismatch under concurrency":
					default:
					}
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	if msg, open := <-errs; open {
		t.Fatal(msg)
	}
}

// TestGraphPathConcurrent exercises the prev-chain reconstruction from
// many goroutines at once.
func TestGraphPathConcurrent(t *testing.T) {
	city := NewGridCity(8, 8, 100, 5)
	g := city.AsGraph()

	var wg sync.WaitGroup
	bad := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			n := g.NumNodes()
			for q := 0; q < 200; q++ {
				from := geo.NodeID(rng.Intn(n))
				to := geo.NodeID(rng.Intn(n))
				path := g.Path(from, to)
				if len(path) == 0 || path[0] != from || path[len(path)-1] != to {
					select {
					case bad <- "broken path under concurrency":
					default:
					}
					return
				}
			}
		}(int64(w + 100))
	}
	wg.Wait()
	close(bad)
	if msg, open := <-bad; open {
		t.Fatal(msg)
	}
}
