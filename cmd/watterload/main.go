// Command watterload is the open-loop load harness CLI: it drives a
// platform with Poisson, surge and heavy-tailed (Pareto) arrival processes
// on the virtual clock, measures sustained throughput, admit→dispatch
// latency tails, decision slip and the event-bus backpressure onset, and
// brackets the maximum sustainable arrival rate by deterministic
// bisection. Where every other bench replays a finite batch and reports
// wall-clock totals, watterload answers the production question: at what
// sustained orders/sec does the platform stop keeping its decision
// promises?
//
// Usage:
//
//	watterload                          # human-readable report, CDC smoke scale
//	watterload -json BENCH_load.json    # write the CI-gated report
//	watterload -rate 2 -workers 300 -horizon 1200
//	watterload -search=false            # skip the rate bisection
//
// Every measurement is virtual-clock deterministic: each scenario runs
// twice and the report's *_deterministic flags certify that both runs
// produced bit-identical order streams and decision journals. The only
// wall-clock number in the report is wall_seconds, the harness's own
// runtime.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"watter/internal/dataset"
	"watter/internal/load"
)

// row is one scenario's slice of the BENCH_load.json report. Scenario is
// the row-matching key (benchgate pairs rows across reports by it); the
// hashes are hex strings so JSON round-trips them exactly (uint64 loses
// bits through float64).
type row struct {
	Scenario         string  `json:"scenario"`
	Process          string  `json:"process"`
	Rate             float64 `json:"rate"`
	Orders           int     `json:"orders"`
	Served           int     `json:"served"`
	Rejected         int     `json:"rejected"`
	Ticks            int     `json:"ticks"`
	Sustained        float64 `json:"sustained_orders_per_sec"`
	P50              float64 `json:"p50_latency_s"`
	P99              float64 `json:"p99_latency_s"`
	P999             float64 `json:"p999_latency_s"`
	MeanLatency      float64 `json:"mean_latency_s"`
	SlipP99          float64 `json:"slip_p99_s"`
	FracWithinTick   float64 `json:"frac_within_tick"`
	ServiceRate      float64 `json:"service_rate"`
	Onset            float64 `json:"backpressure_onset_s"`
	PeakQueueDepth   int     `json:"peak_queue_depth"`
	Buffer           int     `json:"buffer"`
	DrainPerTick     int     `json:"drain_per_tick"`
	StreamHash       string  `json:"stream_hash"`
	JournalHash      string  `json:"journal_hash"`
	StreamIdentical  bool    `json:"order_stream_deterministic"`
	JournalIdentical bool    `json:"journal_deterministic"`
}

// report is the BENCH_load.json shape benchgate learned: rows matched by
// scenario, *deterministic flags hard-gated, sustained_orders_per_sec and
// max_sustainable_rate floored at -frac of baseline, p99_latency_s capped
// at -growth of baseline.
type report struct {
	City         string  `json:"city_profile"`
	Scale        float64 `json:"scale"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Seed         int64   `json:"seed"`
	Workers      int     `json:"workers"`
	HorizonS     float64 `json:"horizon_s"`
	TickS        float64 `json:"tick_s"`
	WallSeconds  float64 `json:"wall_seconds"`
	MaxRate      float64 `json:"max_sustainable_rate,omitempty"`
	SearchQ      float64 `json:"search_quantile,omitempty"`
	SearchBudget float64 `json:"search_slip_budget_s,omitempty"`
	SearchMinSvc float64 `json:"search_min_service_rate,omitempty"`
	SearchProbes int     `json:"search_probes,omitempty"`
	SearchSame   bool    `json:"rate_search_deterministic"`
	Rows         []row   `json:"rows"`
}

func main() {
	var (
		jsonPath = flag.String("json", "", "write the machine-readable report to this file")
		quiet    = flag.Bool("quiet", false, "suppress per-scenario progress")
		cityName = flag.String("city", "cdc", "city profile: nyc, cdc, xia or met")
		workers  = flag.Int("workers", 60, "fleet size")
		horizon  = flag.Float64("horizon", 300, "arrival window in virtual seconds")
		tick     = flag.Float64("tick", 10, "periodic check interval Δt in seconds")
		seed     = flag.Int64("seed", 1, "workload and arrival seed")
		rate     = flag.Float64("rate", 1, "poisson/pareto arrival rate in orders/sec (surge uses rate/2 as its base)")
		buffer   = flag.Int("buffer", 256, "modelled event-bus buffer (platform WithEventBuffer analogue)")
		drain    = flag.Int("drain", 64, "modelled consumer drain per tick")
		bpBuffer = flag.Int("bpbuffer", 64, "starved-consumer scenario: bus buffer")
		bpDrain  = flag.Int("bpdrain", 8, "starved-consumer scenario: drain per tick")
		scale    = flag.Float64("scale", 1, "multiplies workers and arrival rates")
		search   = flag.Bool("search", true, "bisect for the maximum sustainable rate")
		searchLo = flag.Float64("searchlo", 0.125, "rate-search bracket floor, orders/sec")
		searchHi = flag.Float64("searchhi", 2, "rate-search bracket ceiling, orders/sec")
		searchN  = flag.Int("searchiters", 4, "rate-search bisection depth")
		quantile = flag.Float64("quantile", 0.99, "slip quantile the search gates")
		slack    = flag.Float64("slack", 1, "slip budget in ticks for the search predicate")
		minSvc   = flag.Float64("minsvc", 0.5, "service-rate floor for the search predicate")
	)
	flag.Parse()
	if err := run(*jsonPath, *quiet, *cityName, *workers, *horizon, *tick, *seed, *rate,
		*buffer, *drain, *bpBuffer, *bpDrain, *scale,
		*search, *searchLo, *searchHi, *searchN, *quantile, *slack, *minSvc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(jsonPath string, quiet bool, cityName string, workers int, horizon, tick float64,
	seed int64, rate float64, buffer, drain, bpBuffer, bpDrain int, scale float64,
	search bool, searchLo, searchHi float64, searchN int, quantile, slack, minSvc float64) error {
	city, err := dataset.ByName(cityName)
	if err != nil {
		return err
	}
	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	workers = int(float64(workers) * scale)
	rate *= scale
	searchLo *= scale
	searchHi *= scale
	base := load.Config{
		City:         city,
		Workers:      workers,
		Seed:         seed,
		Horizon:      horizon,
		Tick:         tick,
		Buffer:       buffer,
		DrainPerTick: drain,
	}

	//det:wallclock wall_seconds reports only the harness's own runtime, never a measurement
	start := time.Now()
	scenarios := []struct {
		name          string
		spec          load.ArrivalSpec
		buffer, drain int
	}{
		{"poisson", load.ArrivalSpec{Process: load.Poisson, Rate: rate, Seed: seed}, 0, 0},
		{"surge", load.ArrivalSpec{Process: load.Surge, Rate: rate / 2, Seed: seed}, 0, 0},
		{"pareto", load.ArrivalSpec{Process: load.Pareto, Rate: rate, Seed: seed}, 0, 0},
		// The starved-consumer scenario exists to place the backpressure
		// onset: same arrivals as the poisson row, but the modelled
		// consumer drains far slower than the bus fills.
		{"backpressure", load.ArrivalSpec{Process: load.Poisson, Rate: rate, Seed: seed}, bpBuffer, bpDrain},
	}

	rep := report{
		City:       city.Name,
		Scale:      scale,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Workers:    workers,
		HorizonS:   horizon,
		TickS:      tick,
		SearchSame: true,
	}
	for _, sc := range scenarios {
		cfg := base
		cfg.Arrival = sc.spec
		if sc.buffer > 0 {
			cfg.Buffer, cfg.DrainPerTick = sc.buffer, sc.drain
		}
		// Two consecutive runs: the determinism flags are measured, not
		// asserted — a false flag in the report is a real regression and
		// hard-fails the benchgate.
		a, err := load.Run(cfg)
		if err != nil {
			return fmt.Errorf("watterload: %s: %w", sc.name, err)
		}
		b, err := load.Run(cfg)
		if err != nil {
			return fmt.Errorf("watterload: %s rerun: %w", sc.name, err)
		}
		resolved := cfg.Defaults()
		r := row{
			Scenario:         sc.name,
			Process:          string(a.Process),
			Rate:             a.Rate,
			Orders:           a.Submitted,
			Served:           a.Served,
			Rejected:         a.Rejected,
			Ticks:            a.Ticks,
			Sustained:        a.SustainedRate,
			P50:              a.P50,
			P99:              a.P99,
			P999:             a.P999,
			MeanLatency:      a.Mean,
			SlipP99:          a.SlipP99,
			FracWithinTick:   a.FracWithinTick,
			ServiceRate:      a.ServiceRate,
			Onset:            a.BackpressureOnset,
			PeakQueueDepth:   a.PeakQueueDepth,
			Buffer:           resolved.Buffer,
			DrainPerTick:     resolved.DrainPerTick,
			StreamHash:       fmt.Sprintf("%016x", a.StreamHash),
			JournalHash:      fmt.Sprintf("%016x", a.JournalHash),
			StreamIdentical:  a.StreamHash == b.StreamHash,
			JournalIdentical: a.JournalHash == b.JournalHash && *a == *b,
		}
		rep.Rows = append(rep.Rows, r)
		logf("watterload: %-12s rate=%.3f/s n=%d sustained=%.3f/s svc=%.2f p50=%.1fs p99=%.1fs slip99=%.1fs onset=%.0f deterministic=%v\n",
			sc.name, r.Rate, r.Orders, r.Sustained, r.ServiceRate, r.P50, r.P99, r.SlipP99, r.Onset,
			r.StreamIdentical && r.JournalIdentical)
	}

	if search {
		sc := load.SearchConfig{
			Base:           base,
			Quantile:       quantile,
			SlackTicks:     slack,
			MinServiceRate: minSvc,
			Lo:             searchLo,
			Hi:             searchHi,
			Iters:          searchN,
		}
		sc.Base.Arrival = load.ArrivalSpec{Process: load.Poisson, Seed: seed, Rate: searchLo}
		first, err := load.SearchMaxRate(sc, logf)
		if err != nil {
			return err
		}
		second, err := load.SearchMaxRate(sc, nil)
		if err != nil {
			return err
		}
		same := first.MaxRate == second.MaxRate && len(first.Probes) == len(second.Probes)
		for i := 0; same && i < len(first.Probes); i++ {
			same = first.Probes[i] == second.Probes[i]
		}
		rep.MaxRate = first.MaxRate
		rep.SearchQ = first.Quantile
		rep.SearchBudget = first.Budget
		rep.SearchMinSvc = minSvc
		rep.SearchProbes = len(first.Probes)
		rep.SearchSame = same
		logf("watterload: max sustainable rate %.4f orders/sec (slip q%.3g ≤ %.0fs, svc ≥ %.2f) over %d probes, deterministic=%v\n",
			first.MaxRate, first.Quantile, first.Budget, minSvc, len(first.Probes), same)
	}
	//det:wallclock harness runtime for the report header; every measurement above is virtual-clock
	rep.WallSeconds = time.Since(start).Seconds()

	if jsonPath != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(jsonPath, blob, 0o644); err != nil {
			return err
		}
	}
	ok := rep.SearchSame
	for _, r := range rep.Rows {
		if !r.StreamIdentical || !r.JournalIdentical {
			ok = false
		}
	}
	fmt.Printf("watterload: %d scenarios on %s (%d workers, %.0fs horizon), max sustainable %.4f orders/sec, deterministic=%v, wall=%.1fs\n",
		len(rep.Rows), rep.City, rep.Workers, rep.HorizonS, rep.MaxRate, ok, rep.WallSeconds)
	if !ok {
		return fmt.Errorf("watterload: determinism violated — two consecutive runs diverged (see *_deterministic flags)")
	}
	return nil
}
