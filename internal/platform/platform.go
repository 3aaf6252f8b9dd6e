// Package platform is the service-shaped front of the reproduction: a
// validated, event-driven ingestion API over the simulation machinery.
// Where sim.Run replays a pre-materialized workload (paper-replication
// mode), a Platform accepts orders one at a time, advances the periodic
// check on demand, and publishes typed events (order admitted / group
// dispatched / order rejected / tick completed) so callers can build live
// dashboards, loggers or admission controllers on top. Construction goes
// through functional options that validate and return errors instead of
// silently defaulting.
package platform

import (
	"errors"
	"fmt"

	"watter/internal/core"
	"watter/internal/order"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/sim"
	"watter/internal/strategy"
)

// Lifecycle sentinels. ErrClosed is the typed "platform is closed" error:
// Submit/Tick/Replay return it (test with errors.Is) after Close or Abort.
// ErrPaused is returned while the platform is administratively paused —
// the operation is refused but the platform stays usable. ErrAborted is
// what Close reports (idempotently) for a platform that was killed by
// Abort or by a mid-replay failure instead of draining cleanly.
var (
	ErrClosed  = errors.New("platform: closed")
	ErrPaused  = errors.New("platform: paused")
	ErrAborted = errors.New("platform: aborted")
)

// ErrInvalidOrder is what Submit wraps (test with errors.Is) when it
// refuses an order: nil, inconsistent or non-finite fields, a node
// outside the network, an ID still pending, a release behind the clock,
// or a deadline beyond sim.MaxTickSpan checks.
var ErrInvalidOrder = sim.ErrInvalidOrder

// Platform is a ridesharing service instance: one network, one fleet, one
// dispatch algorithm, and a streaming clock. It is not safe for
// concurrent use — one goroutine feeds it; event consumers run elsewhere.
type Platform struct {
	stream     *sim.Stream
	env        *sim.Env
	events     chan Event
	sink       *fanSink // installed on the stream once any delivery path exists
	subscribed bool     // a live sink is installed (events must be closed at Close)
	fed        bool     // the run has started; too late to subscribe
	buffer     int
	paused     bool
	closed     bool
	// Close is idempotent: the first call's result is memoized and every
	// later call returns exactly the same (*Metrics, error) pair.
	closeM   *sim.Metrics
	closeErr error
}

// config accumulates functional options before validation.
type config struct {
	cfg      sim.Config
	opts     sim.RunOptions
	alg      sim.Algorithm
	poolOpt  *pool.Options
	buffer   int
	observer func(Event)
}

// Option configures a Platform at construction; invalid values surface as
// errors from New.
type Option func(*config) error

// WithTick sets the periodic-check interval Δt in seconds (default 10,
// the paper's value). Must be positive.
func WithTick(dt float64) Option {
	return func(c *config) error {
		o := c.opts
		o.TickEvery = dt
		if err := o.Validate(); err != nil {
			return err
		}
		c.opts.TickEvery = dt
		return nil
	}
}

// WithDrainSlack fixes the drain horizon to last-release + slack seconds
// instead of the largest order deadline (the default). The override
// applies even when shorter than outstanding deadlines. Slack must be
// positive: zero is the runtime's "unset, use deadlines" value, so
// passing it here would be silently ignored — exactly the coercion this
// constructor exists to refuse.
func WithDrainSlack(slack float64) Option {
	return func(c *config) error {
		if slack <= 0 {
			return fmt.Errorf("platform: drain slack must be positive, got %v (omit the option to drain to the largest deadline)", slack)
		}
		o := c.opts
		o.DrainSlack = slack
		if err := o.Validate(); err != nil {
			return err
		}
		c.opts.DrainSlack = slack
		return nil
	}
}

// WithConfig replaces the platform parameters (alpha/beta, grid size,
// capacity). Start from sim.DefaultConfig and deviate explicitly.
func WithConfig(cfg sim.Config) Option {
	return func(c *config) error {
		if err := cfg.Validate(); err != nil {
			return err
		}
		c.cfg = cfg
		return nil
	}
}

// WithAlgorithm installs the dispatch policy (default: the WATTER-online
// pooling framework). If the algorithm exposes SetTick it is aligned with
// the platform's Δt at New time, so the check cadence is configured in
// exactly one place.
func WithAlgorithm(alg sim.Algorithm) Option {
	return func(c *config) error {
		if alg == nil {
			return errors.New("platform: nil algorithm")
		}
		c.alg = alg
		return nil
	}
}

// WithPool tunes the shareability graph behind the dispatch algorithm.
// The algorithm must support pool retuning (the WATTER pooling framework
// does; schedule-based baselines have no pool and reject the option).
func WithPool(opt pool.Options) Option {
	return func(c *config) error {
		switch {
		case opt.Capacity < 0:
			return fmt.Errorf("platform: pool Capacity must be non-negative (0 inherits the platform capacity), got %d", opt.Capacity)
		case opt.MaxGroupSize < 1:
			return fmt.Errorf("platform: pool MaxGroupSize must be at least 1, got %d", opt.MaxGroupSize)
		case opt.MaxCliquesPerUpdate < 0:
			return fmt.Errorf("platform: pool MaxCliquesPerUpdate must be non-negative (0 is unlimited), got %d", opt.MaxCliquesPerUpdate)
		}
		c.poolOpt = &opt
		return nil
	}
}

// WithMeasuredTime toggles wall-clock accounting of algorithm hooks
// (Metrics.DecisionSeconds). Default on, matching DefaultRunOptions.
func WithMeasuredTime(on bool) Option {
	return func(c *config) error {
		c.opts.MeasureTime = on
		return nil
	}
}

// WithEventBuffer sizes the event channel (default 256). Event delivery
// blocks when the buffer is full — nothing is dropped — so feeders that
// outrun their consumer need either a larger buffer or a draining
// goroutine.
func WithEventBuffer(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("platform: event buffer must hold at least 1 event, got %d", n)
		}
		c.buffer = n
		return nil
	}
}

// WithObserver installs a synchronous event callback, invoked for every
// event on the feeding goroutine as it happens — the journal-recording
// hook the multi-city proxy builds on. Unlike the Events channel the
// observer never buffers and never blocks on a consumer, so it is the
// right tap for recorders that must not miss or reorder anything. The
// callback must not call back into the Platform. It composes with
// Events(): a subscribed channel receives every event the observer saw,
// observer first.
func WithObserver(fn func(Event)) Option {
	return func(c *config) error {
		if fn == nil {
			return errors.New("platform: nil observer")
		}
		c.observer = fn
		return nil
	}
}

// tickSetter is the retuning hook the pooling framework exposes.
type tickSetter interface{ SetTick(float64) }

// poolSetter is the pool-retuning hook the pooling framework exposes.
type poolSetter interface{ SetPoolOptions(pool.Options) }

// New builds a platform over a network and fleet. Every parameter is
// validated — construction fails loudly instead of silently coercing:
//
//	p, err := platform.New(city.Net, workers,
//	    platform.WithTick(10),
//	    platform.WithPool(pool.DefaultOptions()),
//	    platform.WithAlgorithm(alg),
//	)
//
// Workers are used in place; their FreeAt/Loc fields mutate as the
// platform dispatches.
func New(net roadnet.Network, workers []*order.Worker, options ...Option) (*Platform, error) {
	if net == nil {
		return nil, errors.New("platform: nil network")
	}
	c := config{
		cfg:    sim.DefaultConfig(),
		opts:   sim.DefaultRunOptions(),
		buffer: 256,
	}
	for _, opt := range options {
		if opt == nil {
			return nil, errors.New("platform: nil option")
		}
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	for i, w := range workers {
		if w == nil {
			return nil, fmt.Errorf("platform: worker %d is nil", i)
		}
		// IDs start at 1: GroupDispatched reserves WorkerID 0 for "no
		// single worker attributable", so a zero-ID worker's dispatches
		// would be unreportable.
		if w.ID < 1 {
			return nil, fmt.Errorf("platform: worker at index %d has ID %d < 1", i, w.ID)
		}
		if w.Capacity < 1 {
			return nil, fmt.Errorf("platform: worker %d has capacity %d < 1", w.ID, w.Capacity)
		}
	}
	if c.alg == nil {
		popt := pool.DefaultOptions()
		if c.poolOpt != nil {
			popt = *c.poolOpt
		}
		c.alg = core.New(strategy.Online{}, popt)
	} else if c.poolOpt != nil {
		ps, ok := c.alg.(poolSetter)
		if !ok {
			return nil, fmt.Errorf("platform: algorithm %q does not accept pool options", c.alg.Name())
		}
		ps.SetPoolOptions(*c.poolOpt)
	}
	if ts, ok := c.alg.(tickSetter); ok {
		ts.SetTick(c.opts.TickEvery)
	}
	env := sim.NewEnv(net, workers, c.cfg) // cfg validated above: cannot panic
	stream, err := sim.NewStream(env, c.alg, c.opts)
	if err != nil {
		return nil, err
	}
	p := &Platform{stream: stream, env: env, buffer: c.buffer}
	if c.observer != nil {
		p.ensureSink().fn = c.observer
	}
	return p, nil
}

// ensureSink lazily installs the fan-out sink on the stream. Both delivery
// paths (observer callback, event channel) hang off the one sink, so the
// stream sees a single EventSink regardless of how many taps exist.
func (p *Platform) ensureSink() *fanSink {
	if p.sink == nil {
		p.sink = &fanSink{}
		p.stream.SetSink(p.sink)
	}
	return p.sink
}

// Events returns the platform's event channel, creating it on first call.
// Subscribe from the feeding goroutine, before the first Submit/Tick —
// Events is not safe to call concurrently with Submit/Close — then hand
// the channel to the consumer; it closes when the platform does. Without
// a subscriber the bus costs nothing.
//
// Subscribing late — after the run has started or the platform has
// closed — cannot observe the events already emitted, so instead of
// handing back a channel that would miss events (or never close), Events
// returns an already-closed channel: a ranging consumer exits
// immediately rather than hanging.
func (p *Platform) Events() <-chan Event {
	if p.events == nil {
		p.events = make(chan Event, p.buffer)
		if p.fed || p.closed {
			close(p.events)
		} else {
			p.subscribed = true
			p.ensureSink().ch = p.events
		}
	}
	return p.events
}

// Submit admits one order into the platform. Orders must be valid and
// arrive in non-decreasing release order — a refused order returns an
// error wrapping ErrInvalidOrder; every periodic check due before the
// release fires first. The platform takes ownership of the order and
// enriches DirectCost when unset — callers replaying a shared slice
// should go through Replay, which clones.
func (p *Platform) Submit(o *order.Order) error {
	if p.closed {
		return ErrClosed
	}
	if p.paused {
		return ErrPaused
	}
	// A refused order has no side effects and leaves the run unstarted,
	// so Events can still subscribe after it.
	if err := p.stream.Submit(o); err != nil {
		return err
	}
	p.fed = true
	return nil
}

// Tick fires the next periodic check immediately and returns its
// simulation time — how a live feed makes the platform act while no
// orders arrive.
func (p *Platform) Tick() (float64, error) {
	if p.closed {
		return 0, ErrClosed
	}
	if p.paused {
		return 0, ErrPaused
	}
	p.fed = true
	return p.stream.Tick()
}

// Pause administratively freezes ingestion: Submit and Tick return
// ErrPaused until Resume. Pausing is metrics-neutral — the simulation runs
// on virtual time, so delaying ticks moves no boundary and changes no
// decision; only traffic the caller drops while paused is lost. Close
// still works on a paused platform (it drains and finalizes as usual).
func (p *Platform) Pause() error {
	if p.closed {
		return ErrClosed
	}
	p.paused = true
	return nil
}

// Resume lifts a Pause. Resuming an unpaused platform is a no-op.
func (p *Platform) Resume() error {
	if p.closed {
		return ErrClosed
	}
	p.paused = false
	return nil
}

// Close drains the platform — periodic checks keep firing until the
// horizon (largest outstanding deadline, or last release + drain slack),
// remaining pooled orders are dispatched or rejected — then closes the
// event channel and returns the final metrics. Close is idempotent: every
// call after the first returns the first call's exact (*Metrics, error)
// pair, so restart and teardown paths can close defensively without
// tracking who closed first.
func (p *Platform) Close() (*sim.Metrics, error) {
	if p.closed {
		return p.closeM, p.closeErr
	}
	p.closed = true
	p.closeM, p.closeErr = p.stream.Close()
	if p.subscribed {
		close(p.events)
	}
	return p.closeM, p.closeErr
}

// Abort kills the platform without draining: no final ticks, no Finish,
// in-flight pool state is simply gone — the programmatic equivalent of the
// process crashing. The event channel still closes so ranging consumers
// terminate, Submit/Tick return ErrClosed afterwards, and Close reports
// ErrAborted (idempotently). The multi-city proxy's crash injection and
// restart teardown both route through here; recovery is the owner's
// problem (replay the recorded event journal into a fresh platform).
func (p *Platform) Abort() {
	if p.closed {
		return
	}
	p.abort()
}

// Replay is paper-replication mode on the streaming core: after
// validating every order it delegates to Stream.Replay (the single
// clone + stable-sort + submit implementation sim.Run also uses) and
// closes the platform. The caller's slice is never touched, and the
// metrics are bit-identical to the legacy batch sim.Run — proven by the
// replay equivalence property test. On a mid-replay error the platform
// is aborted — closed without draining, event channel closed — so event
// consumers always terminate.
func (p *Platform) Replay(orders []*order.Order) (*sim.Metrics, error) {
	if p.closed {
		return nil, ErrClosed
	}
	if p.paused {
		return nil, ErrPaused
	}
	for i, o := range orders {
		if o == nil {
			return nil, fmt.Errorf("platform: order %d is nil", i)
		}
		if err := o.Validate(); err != nil {
			return nil, err
		}
	}
	p.fed = true
	if err := p.stream.Replay(orders); err != nil {
		p.abort()
		return nil, err
	}
	return p.Close()
}

// abort kills a platform whose run failed mid-flight: no drain, no
// Finish — but the event channel still closes so ranging consumers
// terminate instead of hanging on a bus that will never deliver again.
// Later Close calls report ErrAborted instead of pretending a clean drain
// produced metrics.
func (p *Platform) abort() {
	p.closed = true
	p.closeM, p.closeErr = nil, ErrAborted
	if p.subscribed {
		close(p.events)
	}
}

// Clock returns the simulation time of the last delivered event.
func (p *Platform) Clock() float64 { return p.stream.Clock() }

// Metrics returns a snapshot of the metrics accumulated so far.
func (p *Platform) Metrics() sim.Metrics { return p.env.Metrics }

// Env exposes the underlying simulation environment for advanced
// consumers (offline training registers outcome observers on it). The
// platform still owns the clock; treat the environment as read-mostly.
func (p *Platform) Env() *sim.Env { return p.env }

// Algorithm returns the installed dispatch policy.
func (p *Platform) Algorithm() sim.Algorithm { return p.stream.Alg() }
