package exp

import (
	"fmt"
	"time"

	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/proxy"
	"watter/internal/sim"
)

// runProxyCell executes one multi-city cell: NumCities instances of the
// profile, each with its own seed-derived workload and fleet, behind one
// dispatch proxy. The row measures front-tier scale (N independent city
// simulations through one routed surface); per-city isolation means its
// aggregate is exactly the sum of N standalone runs, which the proxy
// package's bit-identity tests enforce.
func (r *Runner) runProxyCell(name string, p Params) (*Result, error) {
	if err := checkArrival(p); err != nil {
		return nil, err
	}
	city := r.city(p.City)
	specs := make([]proxy.CitySpec, 0, p.NumCities)
	workloads := make(map[string][]*order.Order, p.NumCities)
	for i := 0; i < p.NumCities; i++ {
		pi := p
		// Derived per-city seeds: city 0 replays the single-city cell's
		// exact workload; the rest are independent replicas of the same
		// demand model.
		pi.Seed = p.Seed + int64(i)*9973
		_, orders, workers := workloadIn(city, pi)
		id := fmt.Sprintf("%s-%d", p.City.Name, i+1)
		// Pre-flight the build so algorithm errors surface here, not as an
		// opaque nil inside proxy.New.
		if _, err := r.Build(name, pi); err != nil {
			return nil, err
		}
		pc := pi
		specs = append(specs, proxy.CitySpec{
			ID:      id,
			Net:     city.Net,
			Workers: workers,
			NewAlgorithm: func() sim.Algorithm {
				alg, err := r.Build(name, pc)
				if err != nil {
					return nil
				}
				return alg
			},
			Options: []platform.Option{
				platform.WithConfig(simConfig(pi)),
				platform.WithTick(pi.TickEvery),
				platform.WithMeasuredTime(true),
			},
		})
		workloads[id] = orders
	}
	px, err := proxy.New(specs)
	if err != nil {
		return nil, err
	}
	start := time.Now() //det:wallclock cell wall-time for Result.Elapsed reporting; never feeds simulation state
	perCity, err := px.Replay(workloads)
	if err != nil {
		return nil, err
	}
	var agg sim.Metrics
	for _, spec := range specs {
		m := perCity[spec.ID]
		if m == nil {
			return nil, fmt.Errorf("exp: proxy cell lost city %q", spec.ID)
		}
		agg.Total += m.Total
		agg.Served += m.Served
		agg.Rejected += m.Rejected
		agg.ServedExtra += m.ServedExtra
		agg.PenaltySum += m.PenaltySum
		agg.ResponseSum += m.ResponseSum
		agg.DetourSum += m.DetourSum
		agg.WorkerTravel += m.WorkerTravel
		agg.RejectUnified += m.RejectUnified
		agg.DecisionSeconds += m.DecisionSeconds
		for k, c := range m.GroupSizeHist {
			agg.GroupSizeHist[k] += c
		}
	}
	//det:wallclock Result.Elapsed is an observability field, outside per-seed metrics
	res := &Result{Alg: name, Params: p, Metrics: &agg, Elapsed: time.Since(start)}
	r.logf("[%s %s] cities=%d n=%d m=%d tau=%.1f: %s\n",
		p.City.Name, name, p.NumCities, p.Orders, p.Workers, p.TauScale, &agg)
	return res, nil
}
