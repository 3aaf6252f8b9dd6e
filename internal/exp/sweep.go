package exp

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"watter/internal/dataset"
	"watter/internal/stats"
)

// Matrix describes a full experiment grid: the cartesian product of the
// listed dimensions, each cell replicated once per seed. Empty dimensions
// default to the corresponding Base field, so a zero Matrix with only Base
// set expands to a single job per algorithm.
type Matrix struct {
	// Base supplies every parameter a dimension below doesn't override.
	Base Params
	// Algs defaults to AlgNames.
	Algs []string
	// Cities defaults to {Base.City}.
	Cities []dataset.Profile
	// Orders, Workers, MaxCaps and TauScales default to the Base values.
	Orders    []int
	Workers   []int
	MaxCaps   []int
	TauScales []float64
	// CityCounts is the multi-city axis: each entry runs the cell as
	// NumCities proxied instances of the profile (see Params.NumCities).
	// Default {Base.NumCities}.
	CityCounts []int
	// Seeds are the replicate seeds per cell; default {Base.Seed}.
	Seeds []int64
	// RetrainPerSeed trains a separate WATTER-expect model for every
	// replicate seed (the pre-engine behavior). The default shares one
	// model per cell — trained under the first seed — across replicates,
	// which is both faster and the statistically cleaner design (the
	// paper's offline stage uses historical days, not the evaluation day).
	RetrainPerSeed bool
}

// Job is one executable (algorithm, configuration, seed) cell expansion.
type Job struct {
	// Index is the job's position in the deterministic expansion order;
	// results are reported index-aligned regardless of completion order.
	Index int
	Alg   string
	P     Params
	// Cell identifies the aggregation cell: every job dimension except the
	// replicate seed.
	Cell string
}

// Jobs expands the matrix into its deterministic job list: cities × orders
// × workers × capacities × tau × algorithms, then seeds innermost so a
// cell's replicates are adjacent.
func (m Matrix) Jobs() []Job {
	algs := m.Algs
	if len(algs) == 0 {
		algs = AlgNames
	}
	cities := m.Cities
	if len(cities) == 0 {
		cities = []dataset.Profile{m.Base.City}
	}
	orders := m.Orders
	if len(orders) == 0 {
		orders = []int{m.Base.Orders}
	}
	workers := m.Workers
	if len(workers) == 0 {
		workers = []int{m.Base.Workers}
	}
	caps := m.MaxCaps
	if len(caps) == 0 {
		caps = []int{m.Base.MaxCap}
	}
	taus := m.TauScales
	if len(taus) == 0 {
		taus = []float64{m.Base.TauScale}
	}
	cityCounts := m.CityCounts
	if len(cityCounts) == 0 {
		cityCounts = []int{m.Base.NumCities}
	}
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []int64{m.Base.Seed}
	}
	trainSeed := m.Base.Train.Seed
	if trainSeed == 0 && !m.RetrainPerSeed {
		trainSeed = seeds[0]
	}

	var jobs []Job
	for _, city := range cities {
		for _, n := range orders {
			for _, w := range workers {
				for _, k := range caps {
					for _, tau := range taus {
						for _, nc := range cityCounts {
							for _, alg := range algs {
								cell := fmt.Sprintf("%s/%s/n%d/m%d/k%d/tau%.2f", alg, city.Name, n, w, k, tau)
								if nc > 1 {
									// Suffix only multi-city rows so existing
									// cell keys (and persisted results) are
									// unchanged.
									cell += fmt.Sprintf("/cities%d", nc)
								}
								for _, seed := range seeds {
									p := m.Base
									p.City = city
									p.Orders = n
									p.Workers = w
									p.MaxCap = k
									p.TauScale = tau
									p.NumCities = nc
									p.Seed = seed
									p.Train.Seed = trainSeed
									jobs = append(jobs, Job{Index: len(jobs), Alg: alg, P: p, Cell: cell})
								}
							}
						}
					}
				}
			}
		}
	}
	return jobs
}

// CellSummary aggregates one cell's replicates: the four paper metrics
// summarized across seeds, plus per-replicate wall-clock.
type CellSummary struct {
	Cell string
	Alg  string
	City string
	// Params is the first replicate's configuration (seeds differ per
	// replicate; everything else is cell-constant).
	Params      Params
	Seeds       []int64
	ExtraTime   stats.Summary
	UnifiedCost stats.Summary
	ServiceRate stats.Summary
	RunningTime stats.Summary
	Elapsed     stats.Welford
}

// SweepResult is a full matrix execution: raw per-job results in expansion
// order and per-cell cross-seed summaries.
type SweepResult struct {
	Jobs    []Job
	Results []*Result // index-aligned with Jobs
	Cells   []CellSummary
	// Elapsed is the sweep's wall-clock; with Parallel > 1 it is less than
	// the sum of per-job Elapsed.
	Elapsed time.Duration
}

// SweepRunner executes experiment matrices over a bounded worker pool.
// Parallelism never changes results: each job owns its environment,
// workload and metrics, and the layers shared between jobs (road
// networks, trained models) are immutable or internally
// synchronized, so per-seed metrics are bit-identical at any Parallel.
type SweepRunner struct {
	Runner *Runner
	// Parallel bounds concurrent jobs; <= 0 means GOMAXPROCS.
	Parallel int
}

// NewSweepRunner wraps a Runner (a fresh one when nil).
func NewSweepRunner(r *Runner) *SweepRunner {
	if r == nil {
		r = NewRunner()
	}
	return &SweepRunner{Runner: r}
}

// Run executes every job of the matrix and aggregates cells.
func (sr *SweepRunner) Run(m Matrix) (*SweepResult, error) {
	jobs := m.Jobs()
	if len(jobs) == 0 {
		return &SweepResult{}, nil
	}
	results := make([]*Result, len(jobs))
	start := time.Now() //det:wallclock harness-side sweep timing, reported as SweepResult.Elapsed; never feeds simulation state
	err := sr.forEach(len(jobs), func(i int) error {
		res, err := sr.Runner.RunOne(jobs[i].Alg, jobs[i].P)
		if err != nil {
			return fmt.Errorf("job %d (%s seed %d): %w", i, jobs[i].Cell, jobs[i].P.Seed, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SweepResult{
		Jobs:    jobs,
		Results: results,
		Cells:   aggregateCells(jobs, results),
		Elapsed: time.Since(start), //det:wallclock observability field on the sweep report, outside per-seed metrics
	}, nil
}

// forEach runs exec(0..n-1) over the worker pool, stopping at the first
// error. With an effective parallelism of 1 it degenerates to a plain
// sequential loop on the calling goroutine.
func (sr *SweepRunner) forEach(n int, exec func(i int) error) error {
	parallel := sr.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			if err := exec(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	cancel := make(chan struct{})
	feed := make(chan int)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				if err := exec(i); err != nil {
					errOnce.Do(func() {
						firstErr = err
						close(cancel)
					})
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case feed <- i:
		case <-cancel:
			i = n // stop feeding; drain below
		}
	}
	close(feed)
	wg.Wait()
	return firstErr
}

// aggregateCells folds index-aligned results into per-cell summaries,
// preserving first-appearance cell order.
func aggregateCells(jobs []Job, results []*Result) []CellSummary {
	type acc struct {
		first   int
		seeds   []int64
		series  [4][]float64
		elapsed stats.Welford
	}
	byCell := map[string]*acc{}
	var order []string
	for i, j := range jobs {
		a, ok := byCell[j.Cell]
		if !ok {
			a = &acc{first: i}
			byCell[j.Cell] = a
			order = append(order, j.Cell)
		}
		r := results[i]
		a.seeds = append(a.seeds, j.P.Seed)
		a.series[0] = append(a.series[0], r.Metrics.ExtraTime())
		a.series[1] = append(a.series[1], r.Metrics.UnifiedCost())
		a.series[2] = append(a.series[2], r.Metrics.ServiceRate())
		a.series[3] = append(a.series[3], r.Metrics.RunningTime())
		a.elapsed.Add(r.Elapsed.Seconds())
	}
	cells := make([]CellSummary, 0, len(order))
	for _, key := range order {
		a := byCell[key]
		j := jobs[a.first]
		cells = append(cells, CellSummary{
			Cell:        key,
			Alg:         j.Alg,
			City:        j.P.City.Name,
			Params:      j.P,
			Seeds:       a.seeds,
			ExtraTime:   stats.Summarize(a.series[0]),
			UnifiedCost: stats.Summarize(a.series[1]),
			ServiceRate: stats.Summarize(a.series[2]),
			RunningTime: stats.Summarize(a.series[3]),
			Elapsed:     a.elapsed,
		})
	}
	return cells
}

// RunFigure is the parallel equivalent of Runner.RunSweep: every (point,
// algorithm) cell of a figure sweep runs over the worker pool, and results
// come back in the same order the sequential runner produces. It is the
// single-replicate case of RunFigureSeeds (the model cache key is
// unchanged: with one seed, the pinned training seed equals the
// evaluation seed the key would have used anyway).
func (sr *SweepRunner) RunFigure(s Sweep, base Params) ([]*Result, error) {
	results, _, err := sr.RunFigureSeeds(s, base, []int64{base.Seed})
	return results, err
}

// RunFigureSeeds runs every (point, algorithm) cell of a figure sweep
// across replicate seeds, returning raw per-job results (in deterministic
// expansion order, X filled for CSV output) plus per-cell cross-seed
// summaries. Replicates share one trained model per cell unless base
// already pins Train.Seed.
func (sr *SweepRunner) RunFigureSeeds(s Sweep, base Params, seeds []int64) ([]*Result, []CellSummary, error) {
	if len(seeds) == 0 {
		seeds = []int64{base.Seed}
	}
	algs := s.Algs
	if len(algs) == 0 {
		algs = AlgNames
	}
	trainSeed := base.Train.Seed
	if trainSeed == 0 {
		trainSeed = seeds[0]
	}
	var jobs []Job
	var xs []float64
	for _, x := range s.Points {
		px := s.Apply(base, x)
		for _, alg := range algs {
			cell := fmt.Sprintf("%s/%s/%s=%g", alg, px.City.Name, s.ID, x)
			for _, seed := range seeds {
				p := px
				p.Seed = seed
				p.Train.Seed = trainSeed
				jobs = append(jobs, Job{Index: len(jobs), Alg: alg, P: p, Cell: cell})
				xs = append(xs, x)
			}
		}
	}
	results := make([]*Result, len(jobs))
	err := sr.forEach(len(jobs), func(i int) error {
		res, err := sr.Runner.RunOne(jobs[i].Alg, jobs[i].P)
		if err != nil {
			return err
		}
		res.Params = jobs[i].P
		res.X = xs[i]
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return results, aggregateCells(jobs, results), nil
}

// ReplicateSeeds returns base, base+1, ... base+n-1 — the conventional
// seed grid for n replicates.
func ReplicateSeeds(base int64, n int) []int64 {
	if n < 1 {
		n = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// SortCells orders cell summaries by (city, alg, cell) — a stable, human-
// friendly report order independent of matrix nesting.
func SortCells(cells []CellSummary) {
	sort.SliceStable(cells, func(i, j int) bool {
		if cells[i].City != cells[j].City {
			return cells[i].City < cells[j].City
		}
		if cells[i].Alg != cells[j].Alg {
			return cells[i].Alg < cells[j].Alg
		}
		return cells[i].Cell < cells[j].Cell
	})
}
