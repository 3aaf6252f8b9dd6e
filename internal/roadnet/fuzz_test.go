package roadnet

import (
	"bytes"
	"math"
	"testing"

	"watter/internal/geo"
)

// FuzzReadDIMACS drives the importer with arbitrary .gr/.co pairs. The
// property: ReadDIMACS never panics, and any input it accepts round-trips
// through WriteDIMACS to a graph that answers sampled queries with
// bit-identical costs — to the original's engine and to its reference
// Dijkstra. The seed corpus lives in testdata/fuzz/FuzzReadDIMACS: the
// grid6x5 fixture, a small disconnected graph, and hostile headers.
func FuzzReadDIMACS(f *testing.F) {
	f.Fuzz(func(t *testing.T, gr, co []byte) {
		g1, err := ReadDIMACS(bytes.NewReader(gr), bytes.NewReader(co))
		if err != nil {
			return
		}
		var gr1, co1 bytes.Buffer
		if err := g1.WriteDIMACS(&gr1, &co1); err != nil {
			t.Fatalf("WriteDIMACS: %v", err)
		}
		g2, err := ReadDIMACS(&gr1, &co1)
		if err != nil {
			t.Fatalf("re-import of an accepted graph failed: %v", err)
		}
		n := g1.NumNodes()
		if g2.NumNodes() != n {
			t.Fatalf("round trip changed node count: %d -> %d", n, g2.NumNodes())
		}
		// All pairs on small graphs, a fixed stride sample beyond that.
		pairs := n * n
		step := 1
		if pairs > 256 {
			step = pairs / 256
		}
		for k := 0; k < pairs; k += step {
			from, to := geo.NodeID(k/n), geo.NodeID(k%n)
			a, b := g1.Cost(from, to), g2.Cost(from, to)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("cost(%d,%d): %v vs %v across round trip", from, to, a, b)
			}
			if ref := g1.CostSSSP(from, to); math.Float64bits(a) != math.Float64bits(ref) {
				t.Fatalf("cost(%d,%d) = %v, reference %v", from, to, a, ref)
			}
		}
	})
}
