package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"watter/internal/order"
)

// EventSink receives the simulator's dispatch-level outcomes as they
// happen. The platform layer installs one to publish typed events; nil
// sinks cost nothing. Sink callbacks run synchronously on the simulation
// goroutine, inside the event that produced them, so implementations must
// not call back into the Env or Stream.
type EventSink interface {
	// OrderAdmitted fires when an order enters the platform, before the
	// algorithm sees it. DirectCost is already enriched.
	OrderAdmitted(o *order.Order, now float64)
	// GroupDispatched fires when a group (possibly a singleton) is booked
	// on a worker. approach is the worker's travel time to the route's
	// first stop; for worker-anchored plans it is zero and the approach is
	// folded into g.Plan.Cost.
	GroupDispatched(w *order.Worker, g *order.Group, approach, now float64)
	// OrderServed fires when a schedule-based baseline completes one
	// order inside a worker's evolving multi-order schedule, with the
	// response and detour seconds it charged; w may be nil when no single
	// worker is attributable.
	OrderServed(w *order.Worker, o *order.Order, response, detour, now float64)
	// OrderRejected fires when an order is rejected, with its METRS
	// penalty p(i) and the Unified Cost rejection term.
	OrderRejected(o *order.Order, penalty, unified, now float64)
	// TickCompleted fires after each periodic check, with a snapshot of
	// the metrics accumulated so far.
	TickCompleted(now float64, m Metrics)
}

// ErrStreamClosed is returned by Stream operations after Close.
var ErrStreamClosed = errors.New("sim: stream closed")

// ErrInvalidOrder is the typed admission error (test with errors.Is):
// Submit wraps it when it refuses an order (see checkOrder).
var ErrInvalidOrder = errors.New("sim: invalid order")

// MaxTickSpan bounds, in periodic checks, how far past the clock an
// order's deadline may lie. Admitting an order commits the stream to
// firing every check up to its release (on Submit) and its deadline (on
// Close), so an unbounded span would wedge the caller. 1<<20 checks is
// about 121 days at the paper's Δt = 10 s.
const MaxTickSpan = 1 << 20

// Stream is the streaming simulation core: it owns the clock and the tick
// cadence, admits orders one at a time, and drives the algorithm's hooks
// exactly as the batch replay did — the batch Run is a thin adapter over
// it, and produces bit-identical metrics.
//
// Scheduling contract (pinned by TestStreamEdgeCases and the replay
// equivalence property test):
//
//   - ticks fire at Δt, 2Δt, ... ; every tick with time <= an order's
//     release fires before that order is delivered (an order released
//     exactly on a tick boundary arrives after that tick),
//   - orders must be submitted in non-decreasing release order, never in
//     the past of the advanced clock,
//   - Close drains: ticks keep firing up to the horizon — the largest
//     deadline seen, or last release + DrainSlack when DrainSlack > 0
//     (DrainSlack overrides the deadline horizon even when shorter) —
//     then Finish runs at the horizon.
type Stream struct {
	env  *Env
	alg  Algorithm
	opts RunOptions
	sink EventSink

	clock       float64 // last delivered event time
	delivered   bool    // whether any event has been delivered (clock is meaningful)
	nextTick    float64
	maxDeadline float64
	lastRelease float64
	submitted   int
	started     bool
	closed      bool
}

// NewStream validates the options and returns a ready stream. The
// environment's metrics are reset when the first event is delivered.
func NewStream(env *Env, alg Algorithm, opts RunOptions) (*Stream, error) {
	if env == nil {
		return nil, errors.New("sim: nil environment")
	}
	if alg == nil {
		return nil, errors.New("sim: nil algorithm")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Stream{env: env, alg: alg, opts: opts}, nil
}

// SetSink installs the event sink. Must be called before the first
// Submit/Tick/Close so no event is missed.
func (s *Stream) SetSink(sink EventSink) {
	s.sink = sink
	s.env.sink = sink
}

// Env exposes the underlying environment (observer registration, metrics).
func (s *Stream) Env() *Env { return s.env }

// Alg returns the algorithm the stream drives.
func (s *Stream) Alg() Algorithm { return s.alg }

// Clock returns the simulation time of the last delivered event.
func (s *Stream) Clock() float64 { return s.clock }

// start lazily initializes the run on the first event.
func (s *Stream) start() {
	if s.started {
		return
	}
	s.started = true
	s.env.Metrics = Metrics{}
	s.nextTick = s.opts.TickEvery
	s.timed(func() { s.alg.Init(s.env) })
}

// timed wraps a hook invocation with optional wall-clock accounting.
func (s *Stream) timed(fn func()) {
	if !s.opts.MeasureTime {
		fn()
		return
	}
	start := time.Now() //det:wallclock opt-in measured-time plumbing behind MeasureTime (platform.WithMeasuredTime)
	fn()
	//det:wallclock DecisionSeconds is the one documented wall-clock Metrics field, excluded from every bit-identity comparison
	s.env.Metrics.DecisionSeconds += time.Since(start).Seconds()
}

// Submit admits one order: all pending ticks up to its release fire
// first, then the algorithm's OnOrder hook runs at the release time. The
// stream owns admission-time enrichment — DirectCost is filled here when
// unset, on the submitted order (ownership passes to the platform; batch
// callers who need their slices untouched go through Run, which clones).
func (s *Stream) Submit(o *order.Order) error {
	if s.closed {
		return ErrStreamClosed
	}
	if err := s.checkOrder(o); err != nil {
		return err
	}
	s.start()
	for s.nextTick <= o.Release {
		s.fireTick()
	}
	s.env.Clock = o.Release
	s.clock = o.Release
	s.delivered = true
	if o.DirectCost == 0 {
		o.DirectCost = s.env.Net.Cost(o.Pickup, o.Dropoff)
	}
	s.env.Metrics.Total++
	if s.env.pending == nil {
		s.env.pending = make(map[int]struct{})
	}
	s.env.pending[o.ID] = struct{}{}
	s.submitted++
	s.lastRelease = o.Release
	if o.Deadline > s.maxDeadline {
		s.maxDeadline = o.Deadline
	}
	if s.sink != nil {
		s.sink.OrderAdmitted(o, o.Release)
	}
	s.timed(func() { s.alg.OnOrder(o, o.Release) })
	return nil
}

// checkOrder reports why Submit refuses o, as an ErrInvalidOrder: it
// is nil or fails order.Validate, names a node outside the network,
// reuses the ID of an order still pending (admitted, neither served nor
// rejected), is released behind the clock, or has a deadline more than
// MaxTickSpan checks past the clock.
func (s *Stream) checkOrder(o *order.Order) error {
	if o == nil {
		return fmt.Errorf("%w: nil order", ErrInvalidOrder)
	}
	if err := o.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidOrder, err)
	}
	n := s.env.Net.NumNodes()
	if o.Pickup < 0 || int(o.Pickup) >= n || o.Dropoff < 0 || int(o.Dropoff) >= n {
		return fmt.Errorf("%w: order %d: pickup %d or dropoff %d outside the network's %d nodes",
			ErrInvalidOrder, o.ID, o.Pickup, o.Dropoff, n)
	}
	if _, dup := s.env.pending[o.ID]; dup {
		return fmt.Errorf("%w: order %d: an order with this ID is still pending", ErrInvalidOrder, o.ID)
	}
	// Monotonicity is checked against delivered events only: before the
	// first one the clock is not meaningful, so negative releases are
	// admissible exactly as they were in the pre-redesign batch runner.
	if s.delivered && o.Release < s.clock {
		return fmt.Errorf("%w: order %d released at %.1f, but the clock is already at %.1f (orders must arrive in release order)",
			ErrInvalidOrder, o.ID, o.Release, s.clock)
	}
	if o.Deadline-s.clock > MaxTickSpan*s.opts.TickEvery {
		return fmt.Errorf("%w: order %d: deadline %v is more than %d checks past the clock %v",
			ErrInvalidOrder, o.ID, o.Deadline, MaxTickSpan, s.clock)
	}
	return nil
}

// Replay feeds a pre-materialized batch workload into the stream: orders
// are cloned (the caller's slice — and the orders it points to — are
// never mutated) and stable-sorted by release before submission. This is
// the one implementation of the batch-over-streaming-core path; Run and
// Platform.Replay both delegate here, so the bit-identical replay
// contract lives in exactly one place. The stream stays open: callers
// drain with Close.
func (s *Stream) Replay(orders []*order.Order) error {
	sorted := make([]*order.Order, len(orders))
	for i, o := range orders {
		if o == nil {
			return fmt.Errorf("sim: order %d is nil", i)
		}
		c := *o
		sorted[i] = &c
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Release < sorted[j].Release })
	for _, o := range sorted {
		if err := s.Submit(o); err != nil {
			return err
		}
	}
	return nil
}

// Tick fires the next periodic check immediately, regardless of pending
// orders, and returns its simulation time. Live feeds use it to let the
// platform make progress while no orders arrive.
func (s *Stream) Tick() (float64, error) {
	if s.closed {
		return 0, ErrStreamClosed
	}
	s.start()
	t := s.nextTick
	s.fireTick()
	return t, nil
}

// fireTick advances the clock to the next tick boundary and runs the
// periodic check there.
func (s *Stream) fireTick() {
	t := s.nextTick
	s.env.Clock = t
	s.clock = t
	s.delivered = true
	s.timed(func() { s.alg.OnTick(t) })
	s.nextTick += s.opts.TickEvery
	if s.sink != nil {
		s.sink.TickCompleted(t, s.env.Metrics)
	}
}

// Horizon returns the drain horizon Close would use right now: the
// largest deadline seen, or last release + DrainSlack when DrainSlack is
// set.
func (s *Stream) Horizon() float64 {
	horizon := s.maxDeadline
	if s.opts.DrainSlack > 0 {
		if s.submitted > 0 {
			horizon = s.lastRelease + s.opts.DrainSlack
		} else {
			horizon = s.opts.DrainSlack
		}
	}
	if horizon < s.clock {
		horizon = s.clock
	}
	return horizon
}

// Close drains the stream — remaining ticks fire through the horizon,
// then the algorithm's Finish hook resolves every still-pooled order —
// and returns the final metrics. The stream accepts no further events.
func (s *Stream) Close() (*Metrics, error) {
	if s.closed {
		return nil, ErrStreamClosed
	}
	s.start()
	s.closed = true
	horizon := s.Horizon()
	for s.nextTick <= horizon {
		s.fireTick()
	}
	s.env.Clock = horizon
	s.clock = horizon
	s.timed(func() { s.alg.Finish(horizon) })
	return &s.env.Metrics, nil
}

// Validate rejects option values the scheduler cannot honor. There is no
// silent defaulting: DefaultRunOptions is the one blessed source of
// defaults, and anything else must be explicit.
func (o RunOptions) Validate() error {
	if o.TickEvery <= 0 || math.IsInf(o.TickEvery, 0) || math.IsNaN(o.TickEvery) {
		return fmt.Errorf("sim: TickEvery must be a positive duration, got %v (use DefaultRunOptions for the paper's Δt = 10 s)", o.TickEvery)
	}
	if o.DrainSlack < 0 || math.IsInf(o.DrainSlack, 0) || math.IsNaN(o.DrainSlack) {
		return fmt.Errorf("sim: DrainSlack must be finite and non-negative, got %v", o.DrainSlack)
	}
	return nil
}
