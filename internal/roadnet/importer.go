package roadnet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"watter/internal/geo"
)

// DIMACS road-network import/export (the 9th DIMACS Implementation
// Challenge format, the lingua franca of shortest-path benchmark inputs).
//
// A city is a pair of files: a .gr graph file
//
//	c  free-form comments
//	p sp <n> <m>
//	a <u> <v> <w>        (1-based node ids, m arc lines)
//
// and a .co coordinate file
//
//	c  free-form comments
//	p aux sp co <n>
//	v <id> <x> <y>       (1-based ids, n vertex lines)
//
// All values are integers, which is exactly what the repo's determinism
// contract wants from an interchange format: weights are travel times in
// CENTISECONDS and coordinates are planar positions in CENTIMETERS, so a
// file fixes the float32 edge weights (w/100 rounded once to float32) with
// no decimal-parsing ambiguity, and two imports of the same bytes build
// bit-identical graphs on any platform. WriteDIMACS rounds to the nearest
// centisecond/centimeter; the round trip is lossless whenever the graph
// came from a DIMACS file or generator in the first place (the property
// importer_test.go pins).

// ErrTooManyNodes is returned (wrapped) by ReadDIMACS when a .gr header
// declares more nodes than geo.NodeID can address.
var ErrTooManyNodes = errors.New("roadnet: node count exceeds the NodeID range")

// ReadDIMACS parses a DIMACS .gr/.co pair and builds the Graph (including
// ALT preprocessing and, at chAutoMinNodes and above, the contraction
// hierarchy). Every node must receive a coordinate; arcs must stay in
// range and non-negative.
//
// Malformed or hostile input yields an error, never a panic. Header counts
// are only cross-checked, never trusted for allocation: arcs are appended
// as they are read and the n-sized node arrays are allocated only once the
// .co file has supplied at least n vertex lines, so memory stays bounded
// by the bytes actually read.
func ReadDIMACS(gr, co io.Reader) (*Graph, error) {
	n, arcs, err := readGR(gr)
	if err != nil {
		return nil, err
	}
	coords, err := readCO(co, n)
	if err != nil {
		return nil, err
	}
	var b GraphBuilder
	for _, p := range coords {
		b.AddNode(p)
	}
	for _, a := range arcs {
		b.AddEdge(a.from, a.to, float64(a.centis)/100)
	}
	return b.Build()
}

type dimacsArc struct {
	from, to geo.NodeID
	centis   int64
}

func readGR(r io.Reader) (n int, arcs []dimacsArc, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	m, line := -1, 0
	for sc.Scan() {
		line++
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] == "c" {
			continue
		}
		switch f[0] {
		case "p":
			if m >= 0 {
				return 0, nil, fmt.Errorf("roadnet: .gr line %d: duplicate p line", line)
			}
			if len(f) != 4 || f[1] != "sp" {
				return 0, nil, fmt.Errorf("roadnet: .gr line %d: want 'p sp <n> <m>', got %q", line, sc.Text())
			}
			if n, err = strconv.Atoi(f[2]); err != nil || n <= 0 {
				return 0, nil, fmt.Errorf("roadnet: .gr line %d: bad node count %q", line, f[2])
			}
			if n > math.MaxInt32 {
				return 0, nil, fmt.Errorf("%w (.gr line %d: %d > %d)", ErrTooManyNodes, line, n, math.MaxInt32)
			}
			if m, err = strconv.Atoi(f[3]); err != nil || m < 0 {
				return 0, nil, fmt.Errorf("roadnet: .gr line %d: bad arc count %q", line, f[3])
			}
		case "a":
			if m < 0 {
				return 0, nil, fmt.Errorf("roadnet: .gr line %d: arc before p line", line)
			}
			if len(f) != 4 {
				return 0, nil, fmt.Errorf("roadnet: .gr line %d: want 'a <u> <v> <w>', got %q", line, sc.Text())
			}
			u, err1 := strconv.Atoi(f[1])
			v, err2 := strconv.Atoi(f[2])
			w, err3 := strconv.ParseInt(f[3], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return 0, nil, fmt.Errorf("roadnet: .gr line %d: non-integer arc field in %q", line, sc.Text())
			}
			if u < 1 || u > n || v < 1 || v > n {
				return 0, nil, fmt.Errorf("roadnet: .gr line %d: arc (%d,%d) outside [1,%d]", line, u, v, n)
			}
			if w < 0 {
				return 0, nil, fmt.Errorf("roadnet: .gr line %d: negative weight %d", line, w)
			}
			arcs = append(arcs, dimacsArc{geo.NodeID(u - 1), geo.NodeID(v - 1), w})
		default:
			return 0, nil, fmt.Errorf("roadnet: .gr line %d: unknown record %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return 0, nil, fmt.Errorf("roadnet: reading .gr: %w", err)
	}
	if m < 0 {
		return 0, nil, fmt.Errorf("roadnet: .gr has no p line")
	}
	if len(arcs) != m {
		return 0, nil, fmt.Errorf("roadnet: .gr declares %d arcs, has %d", m, len(arcs))
	}
	return n, arcs, nil
}

func readCO(r io.Reader, n int) ([]geo.Point, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	type vertex struct {
		id int // 0-based
		p  geo.Point
	}
	var vs []vertex
	line := 0
	for sc.Scan() {
		line++
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] == "c" {
			continue
		}
		switch f[0] {
		case "p":
			// "p aux sp co <n>" — tolerated but cross-checked when present.
			if len(f) == 5 {
				if cn, err := strconv.Atoi(f[4]); err == nil && cn != n {
					return nil, fmt.Errorf("roadnet: .co declares %d nodes, .gr has %d", cn, n)
				}
			}
		case "v":
			if len(f) != 4 {
				return nil, fmt.Errorf("roadnet: .co line %d: want 'v <id> <x> <y>', got %q", line, sc.Text())
			}
			id, err1 := strconv.Atoi(f[1])
			x, err2 := strconv.ParseInt(f[2], 10, 64)
			y, err3 := strconv.ParseInt(f[3], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("roadnet: .co line %d: non-integer vertex field in %q", line, sc.Text())
			}
			if id < 1 || id > n {
				return nil, fmt.Errorf("roadnet: .co line %d: vertex id %d outside [1,%d]", line, id, n)
			}
			vs = append(vs, vertex{id - 1, geo.Point{X: float64(x) / 100, Y: float64(y) / 100}})
		default:
			return nil, fmt.Errorf("roadnet: .co line %d: unknown record %q", line, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("roadnet: reading .co: %w", err)
	}
	if len(vs) < n {
		// Fewer vertex lines than nodes: some node has no coordinate. Count
		// the distinct ids without allocating anything n-sized.
		distinct := make(map[int]struct{}, len(vs))
		for _, v := range vs {
			distinct[v.id] = struct{}{}
		}
		return nil, fmt.Errorf("roadnet: .co covers %d of %d nodes", len(distinct), n)
	}
	coords := make([]geo.Point, n)
	seen := make([]bool, n)
	got := 0
	for _, v := range vs {
		if !seen[v.id] {
			seen[v.id] = true
			got++
		}
		coords[v.id] = v.p // a repeated id keeps its last coordinate
	}
	if got != n {
		return nil, fmt.Errorf("roadnet: .co covers %d of %d nodes", got, n)
	}
	return coords, nil
}

// WriteDIMACS writes the graph as a DIMACS .gr/.co pair, rounding weights
// to centiseconds and coordinates to centimeters. Arcs appear in the
// graph's frozen CSR order (by source node, then insertion order), so the
// output is a pure function of the graph — the same graph always writes
// the same bytes.
func (g *Graph) WriteDIMACS(gr, co io.Writer) error {
	gw := bufio.NewWriter(gr)
	n := len(g.coords)
	fmt.Fprintf(gw, "p sp %d %d\n", n, len(g.adjNode))
	for u := 0; u < n; u++ {
		for i := g.headIdx[u]; i < g.headIdx[u+1]; i++ {
			fmt.Fprintf(gw, "a %d %d %d\n", u+1, g.adjNode[i]+1,
				int64(math.Round(float64(g.adjCost[i])*100)))
		}
	}
	if err := gw.Flush(); err != nil {
		return fmt.Errorf("roadnet: writing .gr: %w", err)
	}
	cw := bufio.NewWriter(co)
	fmt.Fprintf(cw, "p aux sp co %d\n", n)
	for id, p := range g.coords {
		fmt.Fprintf(cw, "v %d %d %d\n", id+1,
			int64(math.Round(p.X*100)), int64(math.Round(p.Y*100)))
	}
	if err := cw.Flush(); err != nil {
		return fmt.Errorf("roadnet: writing .co: %w", err)
	}
	return nil
}

// WriteDIMACSGrid writes a deterministic perturbed-grid city directly in
// DIMACS format: the same lattice topology and traversal order as
// NewPerturbedGrid, but with every edge weight drawn as an INTEGER number
// of centiseconds (floored at 1), so the file itself is the ground truth
// and import/export round-trips are bitwise lossless. This is the paper-
// scale city generator: a 320x320 grid yields a 102,400-node /
// 408,320-arc instance in a few MB of text.
func WriteDIMACSGrid(gr, co io.Writer, w, h int, cellMeters, speed, jitter float64, seed int64) error {
	if w < 1 || h < 1 {
		return fmt.Errorf("roadnet: grid %dx%d must be at least 1x1", w, h)
	}
	cw := bufio.NewWriter(co)
	fmt.Fprintf(cw, "c perturbed grid %dx%d cell=%gm speed=%gm/s jitter=%g seed=%d\n",
		w, h, cellMeters, speed, jitter, seed)
	fmt.Fprintf(cw, "p aux sp co %d\n", w*h)
	cell := int64(math.Round(cellMeters * 100))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fmt.Fprintf(cw, "v %d %d %d\n", y*w+x+1, int64(x)*cell, int64(y)*cell)
		}
	}
	if err := cw.Flush(); err != nil {
		return fmt.Errorf("roadnet: writing .co: %w", err)
	}

	gw := bufio.NewWriter(gr)
	rng := rand.New(rand.NewSource(seed))
	base := cellMeters / speed * 100 // centiseconds
	weight := func() int64 {
		wc := base
		if jitter > 0 {
			wc = base * (1 + (rng.Float64()*2-1)*jitter)
		}
		if c := int64(math.Round(wc)); c > 1 {
			return c
		}
		return 1
	}
	arcs := 2 * (h*(w-1) + w*(h-1))
	fmt.Fprintf(gw, "c perturbed grid %dx%d cell=%gm speed=%gm/s jitter=%g seed=%d\n",
		w, h, cellMeters, speed, jitter, seed)
	fmt.Fprintf(gw, "p sp %d %d\n", w*h, arcs)
	node := func(x, y int) int { return y*w + x + 1 }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				wc := weight()
				fmt.Fprintf(gw, "a %d %d %d\n", node(x, y), node(x+1, y), wc)
				fmt.Fprintf(gw, "a %d %d %d\n", node(x+1, y), node(x, y), wc)
			}
			if y+1 < h {
				wc := weight()
				fmt.Fprintf(gw, "a %d %d %d\n", node(x, y), node(x, y+1), wc)
				fmt.Fprintf(gw, "a %d %d %d\n", node(x, y+1), node(x, y), wc)
			}
		}
	}
	if err := gw.Flush(); err != nil {
		return fmt.Errorf("roadnet: writing .gr: %w", err)
	}
	return nil
}
