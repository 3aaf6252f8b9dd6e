// Package sim is the ridesharing platform simulator: it owns the clock, the
// worker fleet and the metric accounting, and drives any dispatch algorithm
// (the WATTER variants and the GDP/GAS baselines) over an online order
// stream. The four reported measurements match the paper's Section VII-A:
// Extra Time, Unified Cost, Service Rate and Running Time.
package sim

import (
	"fmt"
	"math"

	"watter/internal/geo"
	"watter/internal/gridindex"
	"watter/internal/order"
	"watter/internal/roadnet"
	"watter/internal/route"
)

// Metrics accumulates the paper's four measurements plus the raw terms they
// are derived from.
type Metrics struct {
	Total    int // |O|
	Served   int // |O+|
	Rejected int // |O-|

	// ServedExtra is Σ t_e over served orders; PenaltySum is Σ p(i) over
	// rejected orders. ExtraTime (the METRS objective Φ, Eq. 2) is their sum.
	ServedExtra float64
	PenaltySum  float64

	// ResponseSum and DetourSum decompose ServedExtra (alpha=beta=1).
	ResponseSum float64
	DetourSum   float64

	// WorkerTravel is total driving seconds across the fleet.
	// RejectUnified is the Unified Cost penalty term: 10 x cost(lp,ld) per
	// rejected order (Section VII-A, following [9]). UnifiedCost is their sum.
	WorkerTravel  float64
	RejectUnified float64

	// DecisionSeconds is the cumulative wall-clock time the algorithm spent
	// inside its hooks; RunningTime() reports the per-order average.
	DecisionSeconds float64

	// GroupSizeHist[k] counts dispatched groups with k orders (k capped at 8).
	GroupSizeHist [9]int
}

// ExtraTime returns the METRS objective Φ(W, O) (Eq. 2).
func (m *Metrics) ExtraTime() float64 { return m.ServedExtra + m.PenaltySum }

// UnifiedCost returns worker travel plus rejection penalties (per [9]).
func (m *Metrics) UnifiedCost() float64 { return m.WorkerTravel + m.RejectUnified }

// ServiceRate returns |O+| / |O| in [0,1].
func (m *Metrics) ServiceRate() float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.Served) / float64(m.Total)
}

// RunningTime returns the average algorithm running time per order in
// seconds (the paper's Running Time metric).
func (m *Metrics) RunningTime() float64 {
	if m.Total == 0 {
		return 0
	}
	return m.DecisionSeconds / float64(m.Total)
}

// AvgGroupSize returns the mean dispatched group size.
func (m *Metrics) AvgGroupSize() float64 {
	groups, orders := 0, 0
	for k, c := range m.GroupSizeHist {
		groups += c
		orders += k * c
	}
	if groups == 0 {
		return 0
	}
	return float64(orders) / float64(groups)
}

// Config fixes the experiment-level parameters shared by all algorithms.
type Config struct {
	Alpha, Beta float64 // extra-time trade-off (paper default 1, 1)
	// UnifiedPenaltyFactor multiplies cost(lp,ld) for rejected orders in
	// Unified Cost; the paper uses 10.
	UnifiedPenaltyFactor float64
	// GridN is the side of the spatial index (paper default 10).
	GridN int
	// Capacity is the default vehicle capacity used for group-size limits
	// when planning before a concrete worker is chosen.
	Capacity int
}

// DefaultConfig returns the paper's default parameters.
func DefaultConfig() Config {
	return Config{Alpha: 1, Beta: 1, UnifiedPenaltyFactor: 10, GridN: 10, Capacity: 4}
}

// Env is the platform state visible to dispatch algorithms.
type Env struct {
	Net     roadnet.Network
	Planner *route.Planner
	Index   *gridindex.Index
	WIndex  *gridindex.WorkerIndex
	Workers []*order.Worker
	Cfg     Config

	Clock   float64
	Metrics Metrics

	// onServe/onReject let learners observe outcomes (experience
	// generation); nil outside training.
	onServe  func(g *order.Group, now float64)
	onReject func(o *order.Order, now float64)

	// sink receives dispatch-level outcomes for the event bus; nil
	// outside platform-driven runs. Installed via Stream.SetSink.
	sink EventSink

	// pending holds the IDs of admitted orders not yet served or
	// rejected; Stream.Submit refuses to admit a second order under one
	// of them.
	pending map[int]struct{}
}

// Validate rejects parameter values the simulator cannot honor. There is
// no silent defaulting: DefaultConfig is the one blessed source of
// defaults, and deviations must be explicit.
func (c Config) Validate() error {
	switch {
	case c.Alpha < 0 || math.IsNaN(c.Alpha) || math.IsInf(c.Alpha, 0):
		return fmt.Errorf("sim: Alpha must be finite and non-negative, got %v", c.Alpha)
	case c.Beta < 0 || math.IsNaN(c.Beta) || math.IsInf(c.Beta, 0):
		return fmt.Errorf("sim: Beta must be finite and non-negative, got %v", c.Beta)
	case c.UnifiedPenaltyFactor <= 0 || math.IsNaN(c.UnifiedPenaltyFactor) || math.IsInf(c.UnifiedPenaltyFactor, 0):
		return fmt.Errorf("sim: UnifiedPenaltyFactor must be positive, got %v (the paper uses 10; start from DefaultConfig)", c.UnifiedPenaltyFactor)
	case c.GridN < 1:
		return fmt.Errorf("sim: GridN must be at least 1, got %d", c.GridN)
	case c.Capacity < 1:
		return fmt.Errorf("sim: Capacity must be at least 1, got %d", c.Capacity)
	}
	return nil
}

// NewEnv builds an environment over the network and worker fleet. Workers
// are used in place (their FreeAt/Loc fields mutate during a run). The
// config must be valid (see Config.Validate); NewEnv panics on invalid
// parameters — the platform constructor is the error-returning surface.
func NewEnv(net roadnet.Network, workers []*order.Worker, cfg Config) *Env {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ix := gridindex.New(net, cfg.GridN)
	planner := &route.Planner{Net: net, Alpha: cfg.Alpha, Beta: cfg.Beta}
	return &Env{
		Net:     net,
		Planner: planner,
		Index:   ix,
		WIndex:  gridindex.NewWorkerIndex(ix, net, workers),
		Workers: workers,
		Cfg:     cfg,
	}
}

// SetObservers registers outcome callbacks (used by offline training).
func (e *Env) SetObservers(onServe func(*order.Group, float64), onReject func(*order.Order, float64)) {
	e.onServe = onServe
	e.onReject = onReject
}

// ClosestIdleWorker returns the nearest idle worker with enough seats, or
// nil when none exists.
func (e *Env) ClosestIdleWorker(node geo.NodeID, riders int) *order.Worker {
	return e.WIndex.ClosestIdle(node, e.Clock, riders)
}

// DispatchGroup assigns the group to the closest idle worker with enough
// capacity, updates the worker timeline and accounts all per-order metrics.
// Returns false (and records nothing) when no worker is available.
//
// Timing model: the paper measures response time until the platform
// notifies the rider (t_n = dispatch time) and T(L(i)) from the route's
// first stop. The worker's approach travel to the first stop therefore
// counts toward worker travel (Unified Cost) and the worker's busy window,
// but not toward rider extra time.
//
// The plan's arrival offsets are measured from the route's first stop, so
// the chosen worker's approach leg shifts every dropoff by the same amount.
// Deadline feasibility is therefore re-checked here with the approach
// included: only workers whose travel time to the first stop fits within
// the group's deadline slack are candidates, and the ring search falls
// through to the next-nearest worker when a closer one does not fit.
func (e *Env) DispatchGroup(g *order.Group, now float64) bool {
	if g == nil || g.Plan == nil || len(g.Orders) == 0 {
		return false
	}
	slack := approachSlack(g, now)
	if slack < 0 {
		return false // the plan itself is already past a deadline
	}
	w, approach := e.WIndex.ClosestIdleWithin(g.Plan.Stops[0].Node, now, g.Riders(), slack)
	if w == nil {
		return false
	}
	e.commitGroup(w, approach, g, now)
	return true
}

// DispatchGroupTo is DispatchGroup with a pre-selected worker and its
// already-verified approach travel time (from the caller's own
// ClosestIdleWithin probe against the group's deadline slack); it commits
// without repeating the ring search. The worker must still be idle.
func (e *Env) DispatchGroupTo(w *order.Worker, approach float64, g *order.Group, now float64) bool {
	if g == nil || g.Plan == nil || len(g.Orders) == 0 || w == nil || !w.IdleAt(now) {
		return false
	}
	if math.IsInf(approach, 1) {
		return false
	}
	e.commitGroup(w, approach, g, now)
	return true
}

// commitGroup books the group on the worker and accounts all metrics.
func (e *Env) commitGroup(w *order.Worker, approach float64, g *order.Group, now float64) {
	w.TravelCost += approach + g.Plan.Cost
	w.FreeAt = now + approach + g.Plan.Cost
	w.Loc = g.Plan.Stops[len(g.Plan.Stops)-1].Node
	w.Served++
	e.WIndex.Update(w)

	e.Metrics.WorkerTravel += approach + g.Plan.Cost
	for _, o := range g.Orders {
		st, ok := g.Plan.ServiceTime(o.ID)
		if !ok {
			continue
		}
		response := now - o.Release
		detour := st - o.DirectCost
		e.Metrics.Served++
		delete(e.pending, o.ID)
		e.Metrics.ResponseSum += response
		e.Metrics.DetourSum += detour
		e.Metrics.ServedExtra += e.Cfg.Alpha*detour + e.Cfg.Beta*response
	}
	k := len(g.Orders)
	if k >= len(e.Metrics.GroupSizeHist) {
		k = len(e.Metrics.GroupSizeHist) - 1
	}
	e.Metrics.GroupSizeHist[k]++
	if e.sink != nil {
		e.sink.GroupDispatched(w, g, approach, now)
	}
	if e.onServe != nil {
		e.onServe(g, now)
	}
}

// approachSlack returns the largest approach travel time a worker may add
// in front of the group's route without any member missing its deadline:
// min over dropoffs of (deadline - now - arrival offset). Negative when the
// plan is stale (some deadline is unreachable even with a zero approach).
func approachSlack(g *order.Group, now float64) float64 {
	slack := math.Inf(1)
	for i, s := range g.Plan.Stops {
		if s.Kind != order.DropoffStop {
			continue
		}
		for _, o := range g.Orders {
			if o.ID != s.OrderID {
				continue
			}
			if sl := o.Deadline - now - g.Plan.Arrive[i]; sl < slack {
				slack = sl
			}
			break
		}
	}
	return slack
}

// DispatchGroupWith assigns the group to a specific worker. The group's
// plan must be anchored at the worker's current location (built with
// PlanGroupFrom), so Plan.Cost already includes the approach leg. Used by
// the batch baseline, which chooses workers itself.
func (e *Env) DispatchGroupWith(w *order.Worker, g *order.Group, now float64) bool {
	if g == nil || g.Plan == nil || len(g.Orders) == 0 || !w.IdleAt(now) {
		return false
	}
	w.TravelCost += g.Plan.Cost
	w.FreeAt = now + g.Plan.Cost
	w.Loc = g.Plan.Stops[len(g.Plan.Stops)-1].Node
	w.Served++
	e.WIndex.Update(w)

	e.Metrics.WorkerTravel += g.Plan.Cost
	for _, o := range g.Orders {
		st, ok := g.Plan.ServiceTime(o.ID)
		if !ok {
			continue
		}
		response := now - o.Release
		detour := st - o.DirectCost
		e.Metrics.Served++
		delete(e.pending, o.ID)
		e.Metrics.ResponseSum += response
		e.Metrics.DetourSum += detour
		e.Metrics.ServedExtra += e.Cfg.Alpha*detour + e.Cfg.Beta*response
	}
	k := len(g.Orders)
	if k >= len(e.Metrics.GroupSizeHist) {
		k = len(e.Metrics.GroupSizeHist) - 1
	}
	e.Metrics.GroupSizeHist[k]++
	if e.sink != nil {
		// The plan is worker-anchored: the approach leg is folded into
		// Plan.Cost, so the event reports it as zero.
		e.sink.GroupDispatched(w, g, 0, now)
	}
	if e.onServe != nil {
		e.onServe(g, now)
	}
	return true
}

// ServeWithWorker charges travel to a specific worker without group
// accounting; the GDP baseline (whose workers run evolving multi-order
// schedules) uses it together with ServeOrder.
func (e *Env) ServeWithWorker(w *order.Worker, addedTravel float64) {
	w.TravelCost += addedTravel
	e.Metrics.WorkerTravel += addedTravel
}

// ServeOrder records a single served order with explicit response and
// detour times; w is the worker whose evolving schedule delivered it, or
// nil when no single worker is attributable (used by schedule-based
// baselines).
func (e *Env) ServeOrder(w *order.Worker, o *order.Order, response, detour float64) {
	e.Metrics.Served++
	delete(e.pending, o.ID)
	e.Metrics.ResponseSum += response
	e.Metrics.DetourSum += detour
	e.Metrics.ServedExtra += e.Cfg.Alpha*detour + e.Cfg.Beta*response
	e.Metrics.GroupSizeHist[1]++
	if e.sink != nil {
		e.sink.OrderServed(w, o, response, detour, e.Clock)
	}
	if e.onServe != nil {
		g := &order.Group{Orders: []*order.Order{o}}
		e.onServe(g, e.Clock)
	}
}

// Reject records a rejected order: METRS penalty p(i) plus the Unified
// Cost rejection term.
func (e *Env) Reject(o *order.Order, now float64) {
	e.Metrics.Rejected++
	delete(e.pending, o.ID)
	e.Metrics.PenaltySum += o.Penalty()
	e.Metrics.RejectUnified += e.Cfg.UnifiedPenaltyFactor * o.DirectCost
	if e.sink != nil {
		e.sink.OrderRejected(o, o.Penalty(), e.Cfg.UnifiedPenaltyFactor*o.DirectCost, now)
	}
	if e.onReject != nil {
		e.onReject(o, now)
	}
}

// String summarizes the metrics in one line.
func (m *Metrics) String() string {
	return fmt.Sprintf("served=%d rejected=%d extra=%.0fs unified=%.0f rate=%.3f runtime=%.6fs/order",
		m.Served, m.Rejected, m.ExtraTime(), m.UnifiedCost(), m.ServiceRate(), m.RunningTime())
}
