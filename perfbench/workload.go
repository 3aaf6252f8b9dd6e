package main

import (
	"fmt"
	"time"

	"watter/internal/dataset"
	"watter/internal/exp"
	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/proxy"
	"watter/internal/roadnet"
	"watter/internal/sim"
)

// tickSeconds is the paper's periodic-check interval Δt.
const tickSeconds = 10

// windowSeconds is the simulated release window of every workload: at
// Δt = 10 s it yields just over 1000 periodic checks per pass, so a
// single pass already has more than ten tick samples beyond its p99.
const windowSeconds = 10300

// cityDef is one city of a workload: its demand profile and the order and
// fleet sizes generated for the window.
type cityDef struct {
	id      string
	profile dataset.Profile
	orders  int
	workers int
}

// workload is one benchmark input: cities, algorithm and front tier. The
// "why" of each lives in BENCHMARK.json; RECORD.md keeps the long form.
type workload struct {
	name      string
	algorithm string
	proxy     bool // drive the cities through proxy.New instead of platform.New
	cities    []cityDef
	// windows is how many distinct order streams a run draws from its
	// seed. Every run passes through each at least once, so its quality
	// metrics cover all of them; more windows average more of the demand
	// model in a run, and their count is sized to the run time.
	windows int
	// Training sizes for WATTER-expect's offline stage. Inference cost
	// depends on the network shape, which stays at the exp defaults; the
	// smaller historical set and step count only keep set-up short.
	trainOrders, trainSteps int
}

func roadCDC() dataset.Profile {
	p := dataset.CDC()
	p.RoadJitter = 0.3
	p.RoadSeed = 1
	return p
}

var workloads = []workload{
	{
		// Dense demand under the timeout strategy: orders are held until
		// their last call, so the pool grows and clique enumeration with
		// the route DP dominates; GridCity makes routing nearly free.
		name: "grid-timeout", algorithm: "WATTER-timeout", windows: 2,
		cities: []cityDef{{id: "CDC", profile: dataset.CDC(), orders: 7000, workers: 580}},
	},
	{
		// The paper's default density (2000 orders and 170 workers per
		// 2 h) on an explicit 42x42 perturbed lattice answered by ALT:
		// pair tests in Pool.Insert spend their time in route searches.
		name: "road-online", algorithm: "WATTER-online", windows: 2,
		cities: []cityDef{{id: "CDC", profile: roadCDC(), orders: 2860, workers: 170}},
	},
	{
		// The headline algorithm behind the multi-city proxy: value
		// network inference dominates, routing is the closed form.
		name: "multicity-expect", algorithm: "WATTER-expect", proxy: true, windows: 12,
		cities: []cityDef{
			{id: "NYC", profile: dataset.NYC(), orders: 2140, workers: 160},
			{id: "CDC", profile: dataset.CDC(), orders: 1430, workers: 120},
			{id: "XIA", profile: dataset.XIA(), orders: 1430, workers: 120},
		},
		trainOrders: 600, trainSteps: 60,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// params is the exp configuration of one city of the workload. Only the
// algorithm is built from it; orders and fleets come from inputs.
func (w workload) params(c cityDef) exp.Params {
	p := exp.DefaultParams(c.profile)
	p.Orders, p.Workers, p.TickEvery = c.orders, c.workers, tickSeconds
	if w.trainOrders > 0 {
		p.Train.HistoricalOrders, p.Train.TrainSteps = w.trainOrders, w.trainSteps
		p.Train.Seed = systemSeed
	}
	return p
}

// systemSeed fixes what a deployment owns rather than what arrives: the
// fleet's starting positions and the offline training run. The benchmark
// seed varies the demand only, so runs with different seeds measure one
// system under different order streams.
const systemSeed = 1000

// cityInput is the generated input of one city in one window: its
// orders (sorted by release) and its initial fleet.
type cityInput struct {
	orders  []*order.Order
	workers []*order.Worker
}

// window is one order stream for every city of the workload.
type window []cityInput

// inputs generates the run's windows from the seed. The fleet is the same
// in every window; the orders of window j in city i come from a seed
// derived from (seed, j, i). It builds throwaway networks for the
// generator; that work is not set-up.
func (w workload) inputs(seed int64) []window {
	out := make([]window, w.windows)
	for i, c := range w.cities {
		city := c.profile.Build()
		workers := city.Workers(c.workers, 4, systemSeed+int64(i))
		for j := range out {
			if out[j] == nil {
				out[j] = make(window, len(w.cities))
			}
			out[j][i] = cityInput{
				orders: city.Orders(dataset.WorkloadConfig{
					Orders: c.orders, Seed: seed + int64(j)*100_003 + int64(i)*9973, HorizonSeconds: windowSeconds,
				}),
				workers: workers,
			}
		}
	}
	return out
}

// system is a workload after set-up: built networks and exp runners
// holding the trained models, from which fresh instances are made.
type system struct {
	w       workload
	nets    []roadnet.LatticeNetwork
	runners []*exp.Runner
	windows []window
}

// setupTimes splits one set-up by layer.
type setupTimes struct {
	total, build, train, construct time.Duration
}

// setup builds every city's network (with its routing preprocessing),
// builds the algorithm (training WATTER-expect's model) and constructs
// the platform or proxy once. Inputs are generated beforehand and are not
// part of it.
func setup(w workload, windows []window) (*system, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	sys := &system{w: w, windows: windows}
	for _, c := range w.cities {
		t0 := time.Now()
		sys.nets = append(sys.nets, c.profile.Build().Net)
		t1 := time.Now()
		r := exp.NewRunner()
		if _, err := r.Build(w.algorithm, w.params(c)); err != nil {
			return nil, st, err
		}
		if w.trainOrders > 0 {
			r = serving(r, w.params(c))
		}
		st.build += t1.Sub(t0)
		st.train += time.Since(t1)
		sys.runners = append(sys.runners, r)
	}
	t2 := time.Now()
	if _, err := sys.instance(windows[0], false, nil); err != nil {
		return nil, st, err
	}
	st.construct = time.Since(t2)
	st.total = time.Since(start)
	return sys, st, nil
}

// serving returns a runner that holds r's trained model the way a bundle
// loaded from disk holds it: without the trainer's replay memory. The
// passes then run against the heap a deployment would have, not one that
// still carries the training data.
func serving(r *exp.Runner, p exp.Params) *exp.Runner {
	m := *r.Train(p) // cached: Build already trained it
	m.Trainer = nil
	out := exp.NewRunner()
	out.UseModel(p, &m)
	return out
}

// instance is one fresh, runnable copy of the system: new algorithms
// (reusing the trained model), cloned fleets, a new platform or proxy.
// With tr set, every algorithm is wrapped in the timing decorator.
func (s *system) instance(win window, events bool, tr *tracer) (front, error) {
	algs := make([]sim.Algorithm, len(s.w.cities))
	for i, c := range s.w.cities {
		alg, err := s.runners[i].Build(s.w.algorithm, s.w.params(c))
		if err != nil {
			return nil, err
		}
		if tr != nil {
			fw, ok := alg.(framework)
			if !ok {
				return nil, fmt.Errorf("algorithm %q is not the pooling framework", alg.Name())
			}
			alg = tr.wrap(i, fw)
		}
		algs[i] = alg
	}
	opts := func() []platform.Option {
		return []platform.Option{platform.WithTick(tickSeconds), platform.WithMeasuredTime(false)}
	}
	if !s.w.proxy {
		p, err := platform.New(s.nets[0], cloneWorkers(win[0].workers),
			append(opts(), platform.WithAlgorithm(algs[0]))...)
		if err != nil {
			return nil, err
		}
		return newPlatformFront(p, events), nil
	}
	specs := make([]proxy.CitySpec, len(s.w.cities))
	for i, c := range s.w.cities {
		alg := algs[i]
		specs[i] = proxy.CitySpec{
			ID: c.id, Net: s.nets[i], Workers: win[i].workers, Options: opts(),
			// One incarnation per instance: the benchmark never kills a
			// city, so the factory is called exactly once.
			NewAlgorithm: func() sim.Algorithm { return alg },
		}
	}
	return newProxyFront(specs, events)
}

func cloneWorkers(ws []*order.Worker) []*order.Worker {
	out := make([]*order.Worker, len(ws))
	for i, w := range ws {
		cp := *w
		out[i] = &cp
	}
	return out
}

// feed is the release-ordered interleaving of every city's orders, in the
// order Proxy.Replay would submit them (cities in routing order, then by
// release, ties stable), so live and replayed runs see one sequence.
type feedItem struct {
	city int
	o    *order.Order
}

func (win window) feed() []feedItem {
	var items []feedItem
	for i, in := range win {
		for _, o := range in.orders {
			items = append(items, feedItem{city: i, o: o})
		}
	}
	sortStableByRelease(items)
	return items
}
