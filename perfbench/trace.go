package main

import (
	"time"

	"watter/internal/order"
	"watter/internal/pool"
	"watter/internal/shard"
	"watter/internal/sim"
)

// framework is everything platform.New and Platform.Stats look for on the
// WATTER pooling framework. The decorator embeds it, so every method it
// does not time is forwarded unchanged and a decorated platform is
// configured and reports exactly as an undecorated one.
type framework interface {
	sim.Algorithm
	SetTick(float64)
	SetPoolOptions(pool.Options)
	SetShards(int)
	Pool() *pool.Pool
	ShardEngine() *shard.Engine
}

// hookTimes accumulates one city's algorithm hook times. tickOpen is
// the OnTick time since the tracer last folded it into a tick's fan-out.
type hookTimes struct {
	init, onOrder, onTick, finish time.Duration
	tickOpen                      time.Duration
}

// timedAlg times the four sim.Algorithm hooks around the wrapped
// framework. Hooks run on the feeding goroutine, so no locking is needed.
type timedAlg struct {
	framework
	h *hookTimes
}

func (a *timedAlg) Init(env *sim.Env) {
	t := time.Now()
	a.framework.Init(env)
	a.h.init += time.Since(t)
}

func (a *timedAlg) OnOrder(o *order.Order, now float64) {
	t := time.Now()
	a.framework.OnOrder(o, now)
	a.h.onOrder += time.Since(t)
}

func (a *timedAlg) OnTick(now float64) {
	t := time.Now()
	a.framework.OnTick(now)
	d := time.Since(t)
	a.h.onTick += d
	a.h.tickOpen += d
}

func (a *timedAlg) Finish(now float64) {
	t := time.Now()
	a.framework.Finish(now)
	a.h.finish += time.Since(t)
}

// tracer is the per-pass span store of a traced run: hook times per city,
// the per-tick fan-out over cities, and pool sizes after every tick.
type tracer struct {
	hooks []hookTimes
	fws   []framework
	// fanSum is Σ over Tick calls of Σ cities' OnTick; fanMax is Σ over
	// Tick calls of the slowest city's OnTick.
	fanSum, fanMax time.Duration
	poolSamples    int
	poolSum        int
	poolMax        int
	// Pool state at the end of the window, before Close drains it.
	legBlocks, cachedPlans int
}

func newTracer(cities int) *tracer {
	return &tracer{hooks: make([]hookTimes, cities), fws: make([]framework, cities)}
}

func (t *tracer) wrap(city int, fw framework) sim.Algorithm {
	t.fws[city] = fw
	return &timedAlg{framework: fw, h: &t.hooks[city]}
}

// afterTick folds the OnTick times of the Tick call that just returned and
// samples every city's pool size.
func (t *tracer) afterTick() {
	var sum, max time.Duration
	for i := range t.hooks {
		d := t.hooks[i].tickOpen
		t.hooks[i].tickOpen = 0
		sum += d
		if d > max {
			max = d
		}
	}
	t.fanSum += sum
	t.fanMax += max
	for _, fw := range t.fws {
		n := fw.Pool().Len()
		t.poolSamples++
		t.poolSum += n
		if n > t.poolMax {
			t.poolMax = n
		}
	}
}

// beforeClose records the pools' end-of-window state and drops open
// OnTick time: Close's drain ticks run city after city inside Close, not
// as a fan-out of one Tick call.
func (t *tracer) beforeClose() {
	for i := range t.hooks {
		t.hooks[i].tickOpen = 0
		p := t.fws[i].Pool()
		t.legBlocks += p.LegBlocks()
		t.cachedPlans += p.CachedPlans()
	}
}

func (t *tracer) total() hookTimes {
	var h hookTimes
	for _, x := range t.hooks {
		h.init += x.init
		h.onOrder += x.onOrder
		h.onTick += x.onTick
		h.finish += x.finish
	}
	return h
}
