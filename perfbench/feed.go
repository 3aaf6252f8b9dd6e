package main

import (
	"errors"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/proxy"
	"watter/internal/sim"
)

// front is the surface the feeder drives: one Platform, or one Proxy
// owning several cities. Cities are addressed by their index in the
// workload.
type front interface {
	Tick() (float64, error)
	Submit(city int, o *order.Order) error
	// Close drains, waits for the event consumer, and returns each
	// city's final metrics.
	Close() ([]sim.Metrics, eventCount, error)
	// Replay is the batch path over the same cities, used as the
	// reference the live-driven metrics must equal.
	Replay(win window) ([]sim.Metrics, error)
	// Stats is the platform snapshot, folded over cities.
	Stats() platform.Stats
}

// eventCount is what the consumer goroutine saw.
type eventCount struct {
	events, admitted int
}

func (c *eventCount) add(ev platform.Event) {
	c.events++
	if _, ok := ev.(platform.OrderAdmitted); ok {
		c.admitted++
	}
}

type platformFront struct {
	p    *platform.Platform
	done chan eventCount // nil when nothing subscribed
}

// newPlatformFront subscribes a draining consumer to the platform's event
// bus when events is set; the consumer ends when Close closes the bus.
func newPlatformFront(p *platform.Platform, events bool) *platformFront {
	f := &platformFront{p: p}
	if events {
		ch := p.Events()
		f.done = make(chan eventCount, 1)
		go func() {
			var c eventCount
			for ev := range ch {
				c.add(ev)
			}
			f.done <- c
		}()
	}
	return f
}

func (f *platformFront) Tick() (float64, error)             { return f.p.Tick() }
func (f *platformFront) Submit(_ int, o *order.Order) error { return f.p.Submit(o) }
func (f *platformFront) Stats() platform.Stats              { return f.p.Stats() }
func (f *platformFront) Replay(win window) ([]sim.Metrics, error) {
	m, err := f.p.Replay(win[0].orders)
	if err != nil {
		return nil, err
	}
	return []sim.Metrics{*m}, nil
}

func (f *platformFront) Close() ([]sim.Metrics, eventCount, error) {
	m, err := f.p.Close()
	var c eventCount
	if f.done != nil {
		c = <-f.done
	}
	if err != nil {
		return nil, c, err
	}
	return []sim.Metrics{*m}, c, nil
}

type proxyFront struct {
	x       *proxy.Proxy
	ids     []string
	journal chan proxy.CityEvent // nil when no sink is installed
	done    chan eventCount
}

// newProxyFront builds the proxy. With events set, a journal sink hands
// every tagged event to one consumer goroutine over a channel that the
// feeder closes after Close returns (the sink runs on the feeder).
func newProxyFront(specs []proxy.CitySpec, events bool) (*proxyFront, error) {
	f := &proxyFront{}
	for _, s := range specs {
		f.ids = append(f.ids, s.ID)
	}
	var opts []proxy.Option
	if events {
		// The proxy delivers from under its lock; a buffer of a few
		// hundred events (the platform bus default) absorbs a tick's
		// burst of dispatches without stalling the feeder.
		f.journal = make(chan proxy.CityEvent, 256)
		f.done = make(chan eventCount, 1)
		ch := f.journal
		go func() {
			var c eventCount
			for ev := range ch {
				c.add(ev.Event)
			}
			f.done <- c
		}()
		opts = append(opts, proxy.WithJournalSink(func(ev proxy.CityEvent) { ch <- ev }))
	}
	x, err := proxy.New(specs, opts...)
	if err != nil {
		if f.journal != nil {
			close(f.journal)
			<-f.done
		}
		return nil, err
	}
	f.x = x
	return f, nil
}

func (f *proxyFront) Tick() (float64, error)                { return f.x.Tick() }
func (f *proxyFront) Submit(city int, o *order.Order) error { return f.x.Submit(f.ids[city], o) }
func (f *proxyFront) Stats() platform.Stats                 { return f.x.Admin().Stats().Aggregate }

func (f *proxyFront) Close() ([]sim.Metrics, eventCount, error) {
	per, err := f.x.Close()
	var c eventCount
	if f.journal != nil {
		close(f.journal)
		c = <-f.done
	}
	if err != nil {
		return nil, c, err
	}
	out, err := f.ordered(per)
	return out, c, err
}

func (f *proxyFront) Replay(win window) ([]sim.Metrics, error) {
	w := make(map[string][]*order.Order, len(win))
	for i, c := range win {
		w[f.ids[i]] = c.orders
	}
	per, err := f.x.Replay(w)
	if err != nil {
		return nil, err
	}
	return f.ordered(per)
}

func (f *proxyFront) ordered(per map[string]*sim.Metrics) ([]sim.Metrics, error) {
	out := make([]sim.Metrics, len(f.ids))
	for i, id := range f.ids {
		m := per[id]
		if m == nil {
			return nil, errors.New("proxy lost city " + id)
		}
		out[i] = *m
	}
	return out, nil
}

// pass is one live run of a whole window through a fresh instance.
type pass struct {
	window    int // index into the run's windows
	metrics   []sim.Metrics
	stats     platform.Stats
	events    eventCount
	submitted int
	attempted int // Submit, Tick and Close calls
	failed    int
	elapsed   time.Duration // first call until Close returns
	closeTime time.Duration
	submit    time.Duration // Σ Submit spans
	tick      time.Duration // Σ Tick spans
	// peakResident is the largest resident memory sampled after any Tick.
	peakResident uint64
	// Time of each Tick and Submit call, in call order. Every pass
	// of a window makes the same calls, so index k is the same call in
	// each of them.
	tickLat, submitLat []time.Duration
}

// runPass feeds the window live from one goroutine: at each Δt boundary
// at or before an order's release it calls Tick, then Submit, and at the
// end Close. Orders are cloned before the clock starts because the
// platform takes ownership of what it is given. tr, when set, is told
// after every Tick so it can fold per-city hook times and sample pools.
//
// A failed Tick or Submit is counted and the pass goes on, so every pass
// of a window makes the same calls and failed ÷ attempted is a rate. Only
// a failed Close, which leaves no metrics, ends the pass with an error;
// the first failure of the pass is returned with it.
func runPass(f front, items []feedItem, tr *tracer, mem *memProbe) (pass, error) {
	clones := make([]order.Order, len(items))
	for i, it := range items {
		clones[i] = *it.o
	}
	var ps pass
	var first error
	fail := func(err error) {
		ps.failed++
		if first == nil {
			first = err
		}
	}
	next := float64(tickSeconds)
	start := time.Now()
	for i, it := range items {
		o := &clones[i]
		for next <= o.Release {
			t0 := time.Now()
			_, err := f.Tick()
			d := time.Since(t0)
			ps.attempted++
			if err != nil {
				fail(err)
			}
			ps.tick += d
			ps.tickLat = append(ps.tickLat, d)
			if tr != nil {
				tr.afterTick()
			}
			ps.peakResident = max(ps.peakResident, mem.resident())
			next += tickSeconds
		}
		t0 := time.Now()
		err := f.Submit(it.city, o)
		d := time.Since(t0)
		ps.attempted++
		if err != nil {
			fail(err)
		} else {
			ps.submitted++
		}
		ps.submit += d
		ps.submitLat = append(ps.submitLat, d)
	}
	if tr != nil {
		tr.beforeClose()
	}
	t0 := time.Now()
	ms, ev, err := f.Close()
	ps.closeTime = time.Since(t0)
	ps.elapsed = time.Since(start)
	ps.attempted++
	if err != nil {
		fail(err)
		return ps, first
	}
	ps.metrics, ps.events, ps.stats = ms, ev, f.Stats()
	return ps, first
}

// memProbe reads the process's resident set size from /proc/self/statm.
// The file stays open and is re-read from offset 0, so a sample costs one
// read system call.
type memProbe struct {
	f    *os.File
	buf  [128]byte
	page uint64
}

func newMemProbe() (*memProbe, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	m := &memProbe{f: f, page: uint64(os.Getpagesize())}
	if m.resident() == 0 {
		f.Close()
		return nil, errors.New("/proc/self/statm gives no resident set size")
	}
	return m, nil
}

// resident is the resident set size in bytes, statm's second field in
// pages, or 0 if it cannot be read.
func (m *memProbe) resident() uint64 {
	n, err := m.f.ReadAt(m.buf[:], 0)
	if err != nil && err != io.EOF {
		return 0
	}
	fields := strings.Fields(string(m.buf[:n]))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseUint(fields[1], 10, 64)
	return pages * m.page
}

func sortStableByRelease(items []feedItem) {
	sort.SliceStable(items, func(i, j int) bool { return items[i].o.Release < items[j].o.Release })
}
