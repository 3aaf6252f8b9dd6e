package roadnet

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"watter/internal/geo"
)

// TestDIMACSRoundTrip pins the importer's losslessness contract: a
// generated city, imported and re-exported, re-imports to a graph that
// answers every query bit-identically and re-exports to identical bytes.
func TestDIMACSRoundTrip(t *testing.T) {
	var gr, co bytes.Buffer
	if err := WriteDIMACSGrid(&gr, &co, 7, 6, 150, 8, 0.4, 42); err != nil {
		t.Fatal(err)
	}
	g1, err := ReadDIMACS(bytes.NewReader(gr.Bytes()), bytes.NewReader(co.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumNodes() != 42 {
		t.Fatalf("nodes = %d, want 42", g1.NumNodes())
	}
	var gr1, co1 bytes.Buffer
	if err := g1.WriteDIMACS(&gr1, &co1); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadDIMACS(bytes.NewReader(gr1.Bytes()), bytes.NewReader(co1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var gr2, co2 bytes.Buffer
	if err := g2.WriteDIMACS(&gr2, &co2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gr1.Bytes(), gr2.Bytes()) || !bytes.Equal(co1.Bytes(), co2.Bytes()) {
		t.Fatal("export -> import -> export is not byte-stable")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		from := geo.NodeID(rng.Intn(g1.NumNodes()))
		to := geo.NodeID(rng.Intn(g1.NumNodes()))
		a, b := g1.Cost(from, to), g2.Cost(from, to)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("cost(%d,%d): %v vs %v across round trip", from, to, a, b)
		}
		if ref := g1.CostSSSP(from, to); math.Float64bits(a) != math.Float64bits(ref) {
			t.Fatalf("cost(%d,%d) = %v, reference %v", from, to, a, ref)
		}
	}
}

// TestDIMACSWeights checks the centisecond contract on an unjittered grid:
// every adjacent-pair cost is exactly the base weight rounded once through
// float32.
func TestDIMACSWeights(t *testing.T) {
	var gr, co bytes.Buffer
	if err := WriteDIMACSGrid(&gr, &co, 4, 3, 145, 7, 0, 1); err != nil {
		t.Fatal(err)
	}
	g, err := ReadDIMACS(bytes.NewReader(gr.Bytes()), bytes.NewReader(co.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(float32(float64(int64(math.Round(145.0/7*100))) / 100))
	if got := g.Cost(0, 1); got != want {
		t.Fatalf("adjacent cost = %v, want %v", got, want)
	}
	if p := g.Coord(5); p.X != 145 || p.Y != 145 {
		t.Fatalf("coord(5) = %+v, want (145,145)", p)
	}
}

// TestDIMACSFixture checks the committed testdata fixture imports and,
// crucially, that regenerating it in-memory reproduces the committed bytes
// — the generator is the fixture's single source of truth (make fixtures).
func TestDIMACSFixture(t *testing.T) {
	grB, err := os.ReadFile("testdata/grid6x5.gr")
	if err != nil {
		t.Fatal(err)
	}
	coB, err := os.ReadFile("testdata/grid6x5.co")
	if err != nil {
		t.Fatal(err)
	}
	var gr, co bytes.Buffer
	if err := WriteDIMACSGrid(&gr, &co, 6, 5, 150, 8, 0.4, 42); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(grB, gr.Bytes()) || !bytes.Equal(coB, co.Bytes()) {
		t.Fatal("testdata/grid6x5.{gr,co} drifted from the generator; run `make fixtures`")
	}
	g, err := ReadDIMACS(bytes.NewReader(grB), bytes.NewReader(coB))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 30 {
		t.Fatalf("fixture nodes = %d, want 30", g.NumNodes())
	}
	if len(g.adjNode) != 2*(5*5+6*4) {
		t.Fatalf("fixture arcs = %d, want %d", len(g.adjNode), 2*(5*5+6*4))
	}
}

// TestDIMACSErrors drives the malformed-input paths.
func TestDIMACSErrors(t *testing.T) {
	co3 := "v 1 0 0\nv 2 100 0\nv 3 200 0\n"
	cases := []struct {
		name, gr, co, want string
	}{
		{"no p line", "a 1 2 5\n", co3, "arc before p line"},
		{"bad p line", "p sp x 1\n", co3, "bad node count"},
		{"arc out of range", "p sp 3 1\na 1 9 5\n", co3, "outside [1,3]"},
		{"negative weight", "p sp 3 1\na 1 2 -5\n", co3, "negative weight"},
		{"arc count mismatch", "p sp 3 2\na 1 2 5\n", co3, "declares 2 arcs, has 1"},
		{"missing coordinate", "p sp 3 1\na 1 2 5\n", "v 1 0 0\nv 3 200 0\n", "covers 2 of 3"},
		{"coord out of range", "p sp 3 1\na 1 2 5\n", "v 7 0 0\n", "outside [1,3]"},
		{"node count clash", "p sp 3 1\na 1 2 5\n", "p aux sp co 4\n" + co3, "declares 4 nodes"},
		{"huge arc count", "p sp 1 9223372036854775807\n", "v 1 0 0\n", "declares 9223372036854775807 arcs, has 0"},
		{"node count beyond NodeID", "p sp 3000000000 0\n", "", "exceeds the NodeID range"},
		{"huge node count, few vertices", "p sp 2000000000 0\n", co3, "covers 3 of 2000000000"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadDIMACS(strings.NewReader(c.gr), strings.NewReader(c.co))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want substring %q", err, c.want)
			}
		})
	}
	// A node count geo.NodeID cannot address is a typed error.
	_, err := ReadDIMACS(strings.NewReader("p sp 3000000000 0\n"), strings.NewReader(""))
	if !errors.Is(err, ErrTooManyNodes) {
		t.Fatalf("err = %v, want ErrTooManyNodes", err)
	}
}
