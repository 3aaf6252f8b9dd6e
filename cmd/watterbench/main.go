// Command watterbench regenerates the paper's evaluation: every figure
// sweep (Figures 3-6, the appendix parameter studies, and this repo's
// ablations) on any of the three synthetic cities, executed over the
// parallel sweep engine.
//
// Usage:
//
//	watterbench -fig fig3 -city cdc                  # one figure, one city
//	watterbench -fig all -city all -scale 0.25       # the whole evaluation, tiny
//	watterbench -fig fig5 -replicates 5 -parallel 8  # mean ± CI across seeds
//	watterbench -benchsweep BENCH_sweep.json         # sequential-vs-parallel timing
//	watterbench -benchroute BENCH_routing.json       # routing engine vs cold Dijkstra
//	watterbench -benchstream BENCH_stream.json       # event bus vs batch replay
//	watterbench -benchpool BENCH_pool.json           # plan cache vs replan-always pool
//	watterbench -list                                # enumerate sweeps
//
// The -scale flag multiplies order and worker counts; 1.0 is the harness
// default (~1/25 of paper scale), 25 approximates the paper's full scale.
// -parallel bounds concurrent simulation jobs (0 = GOMAXPROCS); results
// are bit-identical at any parallelism.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"watter/internal/dataset"
	"watter/internal/exp"
	"watter/internal/geo"
	"watter/internal/gridindex"
	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/route"
	"watter/internal/sim"
)

func main() {
	var (
		fig         = flag.String("fig", "fig3", "sweep id (fig3..fig6, grid, eta, dt, gmm, omega, or 'all')")
		city        = flag.String("city", "cdc", "city: nyc, cdc, xia, met, or 'all' (met is the 102K-node explicit-graph metropolis; 'all' stays nyc/cdc/xia)")
		scale       = flag.Float64("scale", 1, "order/worker count multiplier")
		seed        = flag.Int64("seed", 1, "workload seed (first replicate)")
		replicates  = flag.Int("replicates", 1, "seed replicates per cell (reported as mean ± CI)")
		parallel    = flag.Int("parallel", 0, "max concurrent simulation jobs (0 = GOMAXPROCS)")
		quiet       = flag.Bool("quiet", false, "suppress per-run progress")
		list        = flag.Bool("list", false, "list available sweeps and exit")
		algsCSV     = flag.String("algs", "", "comma-separated algorithm subset (default: sweep's own)")
		csvPath     = flag.String("csv", "", "also append tidy per-cell rows to this CSV file")
		benchsweep  = flag.String("benchsweep", "", "run the sequential-vs-parallel engine benchmark and write its JSON report to this file")
		benchroute  = flag.String("benchroute", "", "run the point-to-point routing engine benchmark and write its JSON report to this file")
		benchstream = flag.String("benchstream", "", "run the event-bus-vs-batch-replay benchmark and write its JSON report to this file")
		benchpool   = flag.String("benchpool", "", "run the pool-maintenance plan-cache benchmark and write its JSON report to this file")
	)
	flag.Parse()

	if *list {
		base := exp.DefaultParams(dataset.CDC())
		for _, s := range exp.FigureSweeps(base) {
			fmt.Printf("%-8s %s  points=%v\n", s.ID, s.Label, s.Points)
		}
		return
	}
	if *benchsweep != "" {
		if err := runBenchSweep(*benchsweep, *scale, *seed, *parallel, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *benchroute != "" {
		if err := runBenchRoute(*benchroute, *scale, *seed, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *benchstream != "" {
		if err := runBenchStream(*benchstream, *scale, *seed, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *benchpool != "" {
		if err := runBenchPool(*benchpool, *scale, *seed, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var cities []dataset.Profile
	if *city == "all" {
		cities = []dataset.Profile{dataset.NYC(), dataset.CDC(), dataset.XIA()}
	} else {
		p, err := dataset.ByName(*city)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cities = []dataset.Profile{p}
	}

	runner := exp.NewRunner()
	if !*quiet {
		runner.Out = os.Stderr
	}
	engine := &exp.SweepRunner{Runner: runner, Parallel: *parallel}
	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		csvFile = f
	}

	for _, cityProfile := range cities {
		base := exp.DefaultParams(cityProfile)
		base.Seed = *seed
		base.Orders = int(float64(base.Orders) * *scale)
		base.Workers = int(float64(base.Workers) * *scale)
		if base.Orders < 10 || base.Workers < 1 {
			fmt.Fprintln(os.Stderr, "watterbench: scale too small")
			os.Exit(2)
		}

		var sweeps []exp.Sweep
		if *fig == "all" {
			sweeps = exp.FigureSweeps(base)
		} else {
			s, err := exp.SweepByID(base, *fig)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			sweeps = []exp.Sweep{s}
		}
		for _, s := range sweeps {
			if *algsCSV != "" {
				s.Algs = strings.Split(*algsCSV, ",")
			}
			if *replicates > 1 {
				seeds := exp.ReplicateSeeds(*seed, *replicates)
				results, cells, err := engine.RunFigureSeeds(s, base, seeds)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Printf("== %s / %s — varying %s, %d replicates ==\n", s.ID, cityProfile.Name, s.Label, *replicates)
				exp.PrintCells(os.Stdout, cells)
				fmt.Println()
				writeCSV(csvFile, s.ID, results)
				continue
			}
			results, err := engine.RunFigure(s, base)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			exp.PrintSweep(os.Stdout, s, cityProfile, results)
			writeCSV(csvFile, s.ID, results)
		}
	}
}

func writeCSV(f *os.File, sweepID string, results []*exp.Result) {
	if f == nil {
		return
	}
	if err := exp.WriteCSV(f, sweepID, results); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// benchReport is the JSON shape of the engine benchmark (BENCH_sweep.json).
type benchReport struct {
	City              string  `json:"city"`
	Jobs              int     `json:"jobs"`
	Cells             int     `json:"cells"`
	Scale             float64 `json:"scale"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	Parallel          int     `json:"parallel"`
	SequentialSeconds float64 `json:"sequential_seconds"`
	ParallelSeconds   float64 `json:"parallel_seconds"`
	Speedup           float64 `json:"speedup"`
	Identical         bool    `json:"metrics_bit_identical"`
}

// runBenchSweep times one fixed CDC matrix (strategies + baselines x order
// loads x 2 seeds) sequentially and in parallel, verifies the two runs
// produced bit-identical metrics, and writes the JSON report other PRs use
// as the perf trajectory baseline.
func runBenchSweep(path string, scale float64, seed int64, parallel int, quiet bool) error {
	base := exp.DefaultParams(dataset.CDC())
	base.Seed = seed
	base.Orders = int(float64(base.Orders) * scale)
	base.Workers = int(float64(base.Workers) * scale)
	m := exp.Matrix{
		Base: base,
		// WATTER-expect is excluded: its offline training is a one-time,
		// cached cost that would swamp the sweep-throughput signal.
		Algs:   []string{"GDP", "GAS", "WATTER-online", "WATTER-timeout"},
		Orders: []int{base.Orders, base.Orders * 5 / 4},
		Seeds:  []int64{seed, seed + 1},
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}

	logf("benchsweep: %d jobs sequentially...\n", len(m.Jobs()))
	seq, err := (&exp.SweepRunner{Runner: exp.NewRunner(), Parallel: 1}).Run(m)
	if err != nil {
		return err
	}
	logf("benchsweep: %d jobs at parallel=%d...\n", len(m.Jobs()), parallel)
	par, err := (&exp.SweepRunner{Runner: exp.NewRunner(), Parallel: parallel}).Run(m)
	if err != nil {
		return err
	}

	identical := true
	for i := range seq.Results {
		a, b := *seq.Results[i].Metrics, *par.Results[i].Metrics
		a.DecisionSeconds, b.DecisionSeconds = 0, 0
		if a != b {
			identical = false
			break
		}
	}
	rep := benchReport{
		City:              "CDC",
		Jobs:              len(seq.Jobs),
		Cells:             len(seq.Cells),
		Scale:             scale,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Parallel:          parallel,
		SequentialSeconds: seq.Elapsed.Seconds(),
		ParallelSeconds:   par.Elapsed.Seconds(),
		Speedup:           seq.Elapsed.Seconds() / par.Elapsed.Seconds(),
		Identical:         identical,
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchsweep: %d jobs  sequential=%.2fs  parallel(%d)=%.2fs  speedup=%.2fx  identical=%v\n",
		rep.Jobs, rep.SequentialSeconds, rep.Parallel, rep.ParallelSeconds, rep.Speedup, rep.Identical)
	if !identical {
		return fmt.Errorf("benchsweep: parallel run diverged from sequential metrics")
	}
	return nil
}

// routeRow is one city scale in the routing engine benchmark
// (BENCH_routing.json): the graph's CH engine and its two uncached
// reference arms — ALT and a full Dijkstra per probe — timed over the
// same single-pair probe set.
type routeRow struct {
	City             string  `json:"city"`
	Nodes            int     `json:"nodes"`
	Landmarks        int     `json:"landmarks"`
	CHShortcuts      int     `json:"ch_shortcuts"`
	CHCore           int     `json:"ch_core"`
	CHBuildSecs      float64 `json:"ch_build_seconds"`
	Probes           int     `json:"probes"`
	CHSecs           float64 `json:"ch_seconds"`
	ALTSecs          float64 `json:"alt_seconds"`
	ColdSSSPSecs     float64 `json:"cold_dijkstra_seconds"`
	SpeedupCHvsALT   float64 `json:"speedup_ch_vs_alt"`
	SpeedupCHvsCold  float64 `json:"speedup_ch_vs_cold"`
	SpeedupALTvsCold float64 `json:"speedup_alt_vs_cold"`
	AmortizeProbes   float64 `json:"ch_build_amortize_probes"`
	Identical        bool    `json:"distances_bit_identical"`
	UnreachablePct   float64 `json:"unreachable_pct"`
}

// routeReport is the JSON shape of the routing engine benchmark
// (BENCH_routing.json): one row per city scale, plus the pair-test arm.
type routeReport struct {
	Scale      float64 `json:"scale"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	pairReport
	Rows []routeRow `json:"rows"`
}

// pairReport is the pair-test arm of the routing benchmark: the 4x4 leg
// block of every pair of a fixed order set, filled once by the ALT
// engine's batched search (four multi-target searches per pair) and once
// out of per-order shortest-path rows (two full Dijkstras per order, then
// sixteen reads per pair) — the choice route.LegStore makes on ALT
// graphs. The row arm's time includes filling the rows.
type pairReport struct {
	PairCity       string  `json:"pair_city"`
	PairOrders     int     `json:"pair_orders"`
	PairTests      int     `json:"pair_tests"`
	PairALTSecs    float64 `json:"pair_alt_seconds_per_pair"`
	PairRowSecs    float64 `json:"pair_row_seconds_per_pair"`
	PairRowsFilled int     `json:"pair_rows_filled"`
	PairSpeedup    float64 `json:"pair_speedup_rows_vs_alt"`
	PairIdentical  bool    `json:"pair_rows_bit_identical"`
}

// benchPairRows times both pair-test arms over every pair of k random
// orders on g, which must still be on the ALT engine, and checks that
// the two arms agree bit for bit, +Inf included.
func benchPairRows(city string, g *roadnet.Graph, k int, seed int64) (pairReport, error) {
	rng := rand.New(rand.NewSource(seed*104729 + int64(g.NumNodes())))
	locs := make([][2]geo.NodeID, k) // pickup, dropoff per order
	for i := range locs {
		locs[i] = [2]geo.NodeID{geo.NodeID(rng.Intn(g.NumNodes())), geo.NodeID(rng.Intn(g.NumNodes()))}
	}
	pairs := k * (k - 1) / 2
	blockOf := func(i, j int) [4]geo.NodeID {
		return [4]geo.NodeID{locs[i][0], locs[i][1], locs[j][0], locs[j][1]}
	}

	alt := make([]float64, 16*pairs)
	start := time.Now()
	for i, p := 0, 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			ev := blockOf(i, j)
			roadnet.FillCostMatrix(g, ev[:], ev[:], alt[16*p:16*(p+1)])
			p++
		}
	}
	altSecs := time.Since(start).Seconds()

	n := g.NumNodes()
	fromRows := make([]float64, 16*pairs)
	start = time.Now()
	rows := make([][]float32, k)
	for i := range rows {
		var ok bool
		rows[i], ok = g.AppendCostRow(nil, locs[i][0])
		if ok {
			rows[i], ok = g.AppendCostRow(rows[i], locs[i][1])
		}
		if !ok {
			return pairReport{}, fmt.Errorf("benchroute: %s answers no rows", city)
		}
	}
	for i, p := 0, 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			from := [4][]float32{rows[i][:n], rows[i][n:], rows[j][:n], rows[j][n:]}
			for r, row := range from {
				for c, v := range blockOf(i, j) {
					fromRows[16*p+4*r+c] = float64(row[v])
				}
			}
			p++
		}
	}
	rowSecs := time.Since(start).Seconds()

	identical := true
	for i := range alt {
		if math.Float64bits(alt[i]) != math.Float64bits(fromRows[i]) {
			identical = false
		}
	}
	return pairReport{
		PairCity:       city,
		PairOrders:     k,
		PairTests:      pairs,
		PairALTSecs:    altSecs / float64(pairs),
		PairRowSecs:    rowSecs / float64(pairs),
		PairRowsFilled: 2 * k,
		PairSpeedup:    altSecs / rowSecs,
		PairIdentical:  identical,
	}, nil
}

// benchRouteRow times one city through three point-to-point regimes over
// the same probe set: the contraction hierarchy, the ALT engine it replaces
// on large graphs, and CostSSSP's full single-source Dijkstra per probe.
// Probes are single pickup→dropoff pairs — the dispatch loop's dominant
// query shape — whose sources come from a fixed pool of 48 nodes, the
// probe set the committed baseline was recorded on. All three arms must
// agree bit for bit.
func benchRouteRow(city string, g *roadnet.Graph, probes int, seed int64, logf func(string, ...any)) routeRow {
	g.EnableHierarchy()
	logf("benchroute: %s — %d nodes, %d landmarks, %d shortcuts (built in %.1fs), %d probes\n",
		city, g.NumNodes(), g.NumLandmarks(), g.NumShortcuts(), g.HierarchyBuildSeconds(), probes)

	rng := rand.New(rand.NewSource(seed*7919 + int64(g.NumNodes())))
	srcPool := make([]geo.NodeID, 48)
	for i := range srcPool {
		srcPool[i] = geo.NodeID(rng.Intn(g.NumNodes()))
	}
	type probe struct{ s, t geo.NodeID }
	work := make([]probe, probes)
	for i := range work {
		s := srcPool[rng.Intn(len(srcPool))]
		t := geo.NodeID(rng.Intn(g.NumNodes()))
		for t == s {
			t = geo.NodeID(rng.Intn(g.NumNodes()))
		}
		work[i] = probe{s, t}
	}

	chOut := make([]float64, probes)
	start := time.Now()
	for i, p := range work {
		chOut[i] = g.CostPP(p.s, p.t)
	}
	chSecs := time.Since(start).Seconds()

	altOut := make([]float64, probes)
	start = time.Now()
	for i, p := range work {
		altOut[i] = g.CostALT(p.s, p.t)
	}
	altSecs := time.Since(start).Seconds()

	coldOut := make([]float64, probes)
	start = time.Now()
	for i, p := range work {
		coldOut[i] = g.CostSSSP(p.s, p.t)
	}
	coldSecs := time.Since(start).Seconds()

	identical := true
	unreachable := 0
	for i := range chOut {
		if chOut[i] != altOut[i] || chOut[i] != coldOut[i] {
			identical = false
		}
		if math.IsInf(chOut[i], 1) {
			unreachable++
		}
	}
	// Probes until the CH build has paid for itself versus staying on ALT.
	amortize := -1.0
	if perProbeGain := (altSecs - chSecs) / float64(probes); perProbeGain > 0 {
		amortize = math.Ceil(g.HierarchyBuildSeconds() / perProbeGain)
	}

	return routeRow{
		City:             city,
		Nodes:            g.NumNodes(),
		Landmarks:        g.NumLandmarks(),
		CHShortcuts:      g.NumShortcuts(),
		CHCore:           g.CoreSize(),
		CHBuildSecs:      g.HierarchyBuildSeconds(),
		Probes:           probes,
		CHSecs:           chSecs,
		ALTSecs:          altSecs,
		ColdSSSPSecs:     coldSecs,
		SpeedupCHvsALT:   altSecs / chSecs,
		SpeedupCHvsCold:  coldSecs / chSecs,
		SpeedupALTvsCold: coldSecs / altSecs,
		AmortizeProbes:   amortize,
		Identical:        identical,
		UnreachablePct:   100 * float64(unreachable) / float64(probes),
	}
}

// runBenchRoute benchmarks the routing oracle at two city scales: the
// 70x70 perturbed grid (≈4.9K nodes — below the hierarchy's auto-build
// threshold) and the 320x320 metropolis (≈102K nodes, the paper's
// real-city scale). The metropolis is round-tripped through the DIMACS
// writer/importer, so the row also certifies that an imported city answers
// bit-identically. Each row verifies CH, ALT and the reference Dijkstra
// agree bit for bit and records the CH build cost plus the probe count
// that amortizes it.
func runBenchRoute(path string, scale float64, seed int64, quiet bool) error {
	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	sideAt := func(base int, floor int) int {
		side := int(float64(base) * math.Sqrt(scale))
		if side < floor {
			side = floor
		}
		return side
	}

	small := sideAt(70, 12)
	gSmall := roadnet.NewPerturbedGrid(small, small, 200, 8, 0.3, seed)
	smallCity := fmt.Sprintf("perturbed-grid-%dx%d", small, small)
	// The pair arm runs first: benchRouteRow switches the graph to CH.
	logf("benchroute: %s — pair tests, ALT blocks vs row blocks\n", smallCity)
	pair, err := benchPairRows(smallCity, gSmall, 64, seed)
	if err != nil {
		return err
	}
	rows := []routeRow{
		benchRouteRow(smallCity, gSmall, 4096, seed, logf),
	}

	big := sideAt(320, 40)
	var gr, co bytes.Buffer
	if err := roadnet.WriteDIMACSGrid(&gr, &co, big, big, 200, 8, 0.3, seed); err != nil {
		return err
	}
	logf("benchroute: importing %dx%d DIMACS city (%d bytes .gr)...\n", big, big, gr.Len())
	gBig, err := roadnet.ReadDIMACS(&gr, &co)
	if err != nil {
		return err
	}
	rows = append(rows,
		benchRouteRow(fmt.Sprintf("dimacs-metro-%dx%d", big, big), gBig, 384, seed, logf))

	rep := routeReport{Scale: scale, GOMAXPROCS: runtime.GOMAXPROCS(0), pairReport: pair, Rows: rows}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchroute: %s pair tests (%d)  alt=%.1fµs/pair  rows=%.1fµs/pair (%d rows)  rows-vs-alt=%.1fx  identical=%v\n",
		pair.PairCity, pair.PairTests, 1e6*pair.PairALTSecs, 1e6*pair.PairRowSecs, pair.PairRowsFilled, pair.PairSpeedup, pair.PairIdentical)
	if !pair.PairIdentical {
		return fmt.Errorf("benchroute: %s: row blocks diverged from ALT blocks", pair.PairCity)
	}
	for _, r := range rows {
		fmt.Printf("benchroute: %s (%d nodes)  ch=%.3fs  alt=%.3fs  cold=%.3fs  ch-vs-alt=%.1fx  ch-vs-cold=%.1fx  build=%.1fs (amortized in %.0f probes)  identical=%v\n",
			r.City, r.Nodes, r.CHSecs, r.ALTSecs, r.ColdSSSPSecs,
			r.SpeedupCHvsALT, r.SpeedupCHvsCold, r.CHBuildSecs, r.AmortizeProbes, r.Identical)
		if !r.Identical {
			return fmt.Errorf("benchroute: %s: engines diverged from the Dijkstra reference", r.City)
		}
		if r.SpeedupCHvsCold <= 1 {
			return fmt.Errorf("benchroute: %s: CH (%.3fs) did not beat the cold Dijkstra path (%.3fs)", r.City, r.CHSecs, r.ColdSSSPSecs)
		}
	}
	return nil
}

// streamReport is the JSON shape of the event-bus benchmark
// (BENCH_stream.json).
type streamReport struct {
	City           string  `json:"city"`
	Alg            string  `json:"alg"`
	Orders         int     `json:"orders"`
	Workers        int     `json:"workers"`
	Scale          float64 `json:"scale"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Rounds         int     `json:"rounds"`
	BatchSeconds   float64 `json:"batch_seconds"`
	StreamSeconds  float64 `json:"stream_seconds"`
	EventsPerRun   int     `json:"events_per_run"`
	OverheadFactor float64 `json:"overhead_factor"`
	Identical      bool    `json:"metrics_bit_identical"`
}

// runBenchStream measures what the event bus costs: the same CDC workload
// runs through the legacy batch adapter (sim.Run, no sink — the exact
// pre-redesign surface) and through a Platform with a subscribed,
// actively-drained event channel. Both paths share the streaming core, so
// metrics must be bit-identical; the report tracks the wall-clock ratio
// the way BENCH_routing.json tracks the routing engine.
func runBenchStream(path string, scale float64, seed int64, quiet bool) error {
	base := exp.DefaultParams(dataset.CDC())
	base.Seed = seed
	base.Orders = int(float64(base.Orders) * scale)
	base.Workers = int(float64(base.Workers) * scale)
	if base.Orders < 10 || base.Workers < 1 {
		return fmt.Errorf("benchstream: scale %.2f too small", scale)
	}
	city := base.City.Build()
	orders := city.Orders(dataset.WorkloadConfig{
		Orders: base.Orders, Seed: base.Seed, TauScale: base.TauScale, Eta: base.Eta,
	})
	const rounds = 3
	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	logf("benchstream: CDC n=%d m=%d, %d rounds per arm\n", base.Orders, base.Workers, rounds)

	runBatch := func() (*sim.Metrics, float64) {
		workers := city.Workers(base.Workers, base.MaxCap, base.Seed+1000)
		cfg := sim.DefaultConfig()
		cfg.GridN = base.GridN
		cfg.Capacity = base.MaxCap
		env := sim.NewEnv(city.Net, workers, cfg)
		alg := exp.MustBuild("WATTER-online", base)
		start := time.Now()
		m := sim.Run(env, alg, orders, sim.RunOptions{TickEvery: base.TickEvery})
		return m, time.Since(start).Seconds()
	}
	runStream := func() (*sim.Metrics, float64, int, error) {
		workers := city.Workers(base.Workers, base.MaxCap, base.Seed+1000)
		cfg := sim.DefaultConfig()
		cfg.GridN = base.GridN
		cfg.Capacity = base.MaxCap
		alg := exp.MustBuild("WATTER-online", base)
		p, err := platform.New(city.Net, workers,
			platform.WithConfig(cfg),
			platform.WithTick(base.TickEvery),
			platform.WithMeasuredTime(false),
			platform.WithAlgorithm(alg),
		)
		if err != nil {
			return nil, 0, 0, err
		}
		events := p.Events()
		counted := make(chan int, 1)
		go func() {
			n := 0
			for range events {
				n++
			}
			counted <- n
		}()
		start := time.Now()
		m, err := p.Replay(orders)
		elapsed := time.Since(start).Seconds()
		if err != nil {
			return nil, 0, 0, err
		}
		return m, elapsed, <-counted, nil
	}

	var batchSecs, streamSecs float64
	var events int
	var batchM, streamM sim.Metrics
	identical := true
	for r := 0; r < rounds; r++ {
		bm, bs := runBatch()
		sm, ss, n, err := runStream()
		if err != nil {
			return err
		}
		batchSecs += bs
		streamSecs += ss
		events = n
		a, b := *bm, *sm
		a.DecisionSeconds, b.DecisionSeconds = 0, 0
		if a != b {
			identical = false
		}
		batchM, streamM = a, b
		logf("benchstream: round %d batch=%.3fs stream=%.3fs events=%d\n", r+1, bs, ss, n)
	}

	rep := streamReport{
		City:           "CDC",
		Alg:            "WATTER-online",
		Orders:         base.Orders,
		Workers:        base.Workers,
		Scale:          scale,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Rounds:         rounds,
		BatchSeconds:   batchSecs / rounds,
		StreamSeconds:  streamSecs / rounds,
		EventsPerRun:   events,
		OverheadFactor: streamSecs / batchSecs,
		Identical:      identical,
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchstream: batch=%.3fs stream+events=%.3fs overhead=%.2fx events/run=%d identical=%v\n",
		rep.BatchSeconds, rep.StreamSeconds, rep.OverheadFactor, rep.EventsPerRun, rep.Identical)
	if !identical {
		return fmt.Errorf("benchstream: streamed metrics diverged from batch replay:\nbatch:  %+v\nstream: %+v", batchM, streamM)
	}
	return nil
}

// poolReport is the JSON shape of the pool-maintenance plan-cache
// benchmark (BENCH_pool.json).
type poolReport struct {
	City              string  `json:"city"`
	Nodes             int     `json:"nodes"`
	Orders            int     `json:"pool_orders"`
	Ticks             int     `json:"ticks"`
	Scale             float64 `json:"scale"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	UncachedSeconds   float64 `json:"uncached_seconds"`
	CachedSeconds     float64 `json:"cached_seconds"`
	Speedup           float64 `json:"speedup"`
	CacheHits         uint64  `json:"cache_hits"`
	NegativeHits      uint64  `json:"negative_hits"`
	CacheMisses       uint64  `json:"cache_misses"`
	Renewed           uint64  `json:"renewed"`
	HitRate           float64 `json:"hit_rate"`
	PlansAvoided      uint64  `json:"plans_avoided"`
	PlansMaterialized uint64  `json:"plans_materialized"`
	PlansReused       uint64  `json:"plans_reused"`
	LegBlocks         int     `json:"leg_blocks"`
	DecisionsSame     bool    `json:"pool_decisions_identical"`
	SimCity           string  `json:"sim_city"`
	SimAlgs           string  `json:"sim_algs"`
	SimCachedSecs     float64 `json:"sim_cached_seconds"`
	SimUncachedSecs   float64 `json:"sim_uncached_seconds"`
	Identical         bool    `json:"metrics_bit_identical"`
}

// poolWorkload is a deterministic pool-maintenance trace: clustered orders
// on a perturbed-grid road graph, released over a two-hour-ish window.
func poolWorkload(g *roadnet.Graph, side, n int, horizon float64, seed int64) []*order.Order {
	rng := rand.New(rand.NewSource(seed*31 + 7))
	type hub struct{ x, y int }
	hubs := make([]hub, 6)
	for i := range hubs {
		hubs[i] = hub{rng.Intn(side), rng.Intn(side)}
	}
	near := func(h hub) geo.NodeID {
		x := clamp(h.x+rng.Intn(9)-4, 0, side-1)
		y := clamp(h.y+rng.Intn(9)-4, 0, side-1)
		return geo.NodeID(y*side + x)
	}
	orders := make([]*order.Order, 0, n)
	for i := 0; i < n; i++ {
		pu := near(hubs[rng.Intn(len(hubs))])
		do := near(hubs[rng.Intn(len(hubs))])
		if pu == do {
			continue
		}
		direct := g.Cost(pu, do)
		release := rng.Float64() * horizon
		tau := 1.3 + rng.Float64()*0.7
		orders = append(orders, &order.Order{
			ID: i + 1, Pickup: pu, Dropoff: do, Riders: 1 + rng.Intn(2),
			Release: release, Deadline: release + tau*direct,
			WaitLimit: 0.8 * direct, DirectCost: direct,
		})
	}
	sort.SliceStable(orders, func(i, j int) bool { return orders[i].Release < orders[j].Release })
	return orders
}

// runPoolTrace replays the workload through one pool — tick-driven expiry,
// insertion and last-call-style group dispatch, the same churn Algorithm 1
// generates — and folds every best-group decision (members, τg, plan cost,
// stops, arrivals) into an FNV digest so two arms can be compared bit for
// bit. Returns the digest, the elapsed wall time and the pool itself.
func runPoolTrace(g *roadnet.Graph, orders []*order.Order, horizon float64, disable bool) (uint64, float64, *pool.Pool) {
	ix := gridindex.New(g, 10)
	planner := route.NewPlanner(g)
	opt := pool.DefaultOptions()
	opt.DisablePlanCache = disable
	p := pool.New(planner, ix, opt)
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	// Record-type tags keep the digest injective: every record starts with
	// a tag word and hashes each field as its own word (no bit packing), so
	// two different decision streams can't collide by compensation.
	const (
		tagReject   = 1
		tagNoGroup  = 2
		tagBest     = 3
		tagDispatch = 4
	)
	start := time.Now()
	next := 0
	for now := 0.0; now <= horizon+300; now += 10 {
		for _, id := range p.ExpireEdges(now) {
			p.Remove(id, now)
			w64(tagReject)
			w64(uint64(id))
		}
		for next < len(orders) && orders[next].Release <= now {
			p.Insert(orders[next], now)
			next++
		}
		for _, id := range p.OrderIDs() {
			if !p.Contains(id) {
				continue // left earlier this pass inside a dispatched group
			}
			bg, exp, ok := p.BestGroup(id)
			if !ok {
				w64(tagNoGroup)
				w64(uint64(id))
				continue
			}
			w64(tagBest)
			w64(uint64(id))
			w64(math.Float64bits(exp))
			w64(math.Float64bits(bg.Plan.Cost))
			for i, s := range bg.Plan.Stops {
				w64(uint64(s.OrderID))
				w64(uint64(s.Node))
				w64(uint64(s.Kind))
				w64(math.Float64bits(bg.Plan.Arrive[i]))
			}
			// Last-call dispatch: the group leaves before its horizon dies.
			if exp < now+30 {
				w64(tagDispatch)
				w64(uint64(id))
				p.RemoveGroup(bg, now)
			}
		}
	}
	return h.Sum64(), time.Since(start).Seconds(), p
}

// runBenchPool measures what the clique plan cache buys on the pool
// maintenance hot path. The primary arm replays a deterministic
// insert/expire/dispatch trace on a perturbed-grid road graph twice —
// memoization on vs off — and verifies every best-group decision is
// bit-identical before reporting the wall-clock ratio. A secondary arm
// runs full CDC simulations (WATTER-online and WATTER-timeout) cache-on
// and cache-off and requires bit-identical Metrics, pinning the
// determinism contract end to end.
func runBenchPool(path string, scale float64, seed int64, quiet bool) error {
	side := int(36 * math.Sqrt(scale))
	if side < 14 {
		side = 14
	}
	n := int(900 * scale)
	if n < 60 {
		return fmt.Errorf("benchpool: scale %.2f too small", scale)
	}
	const horizon = 1800.0
	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	g := roadnet.NewPerturbedGrid(side, side, 200, 8, 0.3, seed)
	orders := poolWorkload(g, side, n, horizon, seed)
	logf("benchpool: %dx%d city (%d nodes), %d orders over %.0fs\n",
		side, side, g.NumNodes(), len(orders), horizon)

	ticks := int(horizon+300)/10 + 1
	uncachedDigest, uncachedSecs, _ := runPoolTrace(g, orders, horizon, true)
	logf("benchpool: uncached trace %.3fs\n", uncachedSecs)
	cachedDigest, cachedSecs, cp := runPoolTrace(g, orders, horizon, false)
	logf("benchpool: cached trace %.3fs\n", cachedSecs)
	st := cp.CacheStats()
	decisionsSame := cachedDigest == uncachedDigest

	// Sim-level determinism: full runs, cache on vs off, bit-identical.
	simAlgs := []string{"WATTER-online", "WATTER-timeout"}
	base := exp.DefaultParams(dataset.CDC())
	base.Seed = seed
	base.Orders = int(float64(base.Orders) * scale)
	base.Workers = int(float64(base.Workers) * scale)
	identical := true
	var simCached, simUncached float64
	for _, name := range simAlgs {
		runSim := func(disable bool) (*sim.Metrics, float64) {
			city := base.City.Build()
			workers := city.Workers(base.Workers, base.MaxCap, base.Seed+1000)
			cfg := sim.DefaultConfig()
			cfg.GridN = base.GridN
			cfg.Capacity = base.MaxCap
			alg := exp.MustBuild(name, base)
			if ps, ok := alg.(interface{ SetPoolOptions(pool.Options) }); ok {
				opt := pool.DefaultOptions()
				opt.Capacity = base.MaxCap
				opt.MaxGroupSize = base.MaxCap
				opt.DisablePlanCache = disable
				ps.SetPoolOptions(opt)
			}
			workload := city.Orders(dataset.WorkloadConfig{
				Orders: base.Orders, Seed: base.Seed, TauScale: base.TauScale, Eta: base.Eta,
			})
			startSim := time.Now()
			m := sim.Run(sim.NewEnv(city.Net, workers, cfg), alg, workload,
				sim.RunOptions{TickEvery: base.TickEvery})
			return m, time.Since(startSim).Seconds()
		}
		mc, sc := runSim(false)
		mu, su := runSim(true)
		simCached += sc
		simUncached += su
		if *mc != *mu {
			identical = false
			logf("benchpool: %s diverged:\ncached:   %+v\nuncached: %+v\n", name, *mc, *mu)
		}
	}

	rep := poolReport{
		City:              fmt.Sprintf("perturbed-grid-%dx%d", side, side),
		Nodes:             g.NumNodes(),
		Orders:            len(orders),
		Ticks:             ticks,
		Scale:             scale,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		UncachedSeconds:   uncachedSecs,
		CachedSeconds:     cachedSecs,
		Speedup:           uncachedSecs / cachedSecs,
		CacheHits:         st.Hits,
		NegativeHits:      st.NegativeHits,
		CacheMisses:       st.Misses,
		Renewed:           st.Renewed,
		HitRate:           st.HitRate(),
		PlansAvoided:      st.PlansAvoided(),
		PlansMaterialized: st.PlansMaterialized,
		PlansReused:       st.PlansReused,
		LegBlocks:         cp.LegBlocks(),
		DecisionsSame:     decisionsSame,
		SimCity:           "CDC",
		SimAlgs:           strings.Join(simAlgs, ","),
		SimCachedSecs:     simCached,
		SimUncachedSecs:   simUncached,
		Identical:         identical,
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("benchpool: uncached=%.3fs cached=%.3fs speedup=%.1fx hit-rate=%.1f%% plans-avoided=%d decisions-identical=%v metrics-identical=%v\n",
		rep.UncachedSeconds, rep.CachedSeconds, rep.Speedup, 100*rep.HitRate, rep.PlansAvoided, rep.DecisionsSame, rep.Identical)
	if !decisionsSame {
		return fmt.Errorf("benchpool: cached pool decisions diverged from the replan-always reference")
	}
	if !identical {
		return fmt.Errorf("benchpool: sim metrics diverged with the plan cache on")
	}
	if rep.HitRate <= 0 {
		return fmt.Errorf("benchpool: cache recorded no hits (rate %.3f)", rep.HitRate)
	}
	if rep.Speedup <= 1 {
		return fmt.Errorf("benchpool: cached arm (%.3fs) did not beat replan-always (%.3fs)", cachedSecs, uncachedSecs)
	}
	return nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
