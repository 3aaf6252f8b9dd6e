package main

import "time"

// layerMetrics reports the traced passes' split by module. Times and
// counts are per pass (one run of the workload's window), averaged over
// the traced passes; CPU shares are over the profile of all of them.
func layerMetrics(res *result, setups []setupTimes, plain, traced []pass, tracers []*tracer, sp moduleSplit, rt0, rt1 runtimeSample) {
	n := float64(len(traced))
	perPass := func(d time.Duration) float64 { return d.Seconds() / n }

	var submit, tick, closeT time.Duration
	var events, highWater int
	var blocked uint64
	for _, p := range traced {
		submit += p.submit
		tick += p.tick
		closeT += p.closeTime
		events += p.events.events
		blocked += p.stats.EventBlockedSends
		if p.stats.EventQueueHighWater > highWater {
			highWater = p.stats.EventQueueHighWater
		}
	}
	var hooks hookTimes
	var fanSum, fanMax time.Duration
	var samples, poolSum, poolMax, legBlocks, cachedPlans int
	for _, t := range tracers {
		h := t.total()
		hooks.init += h.init
		hooks.onOrder += h.onOrder
		hooks.onTick += h.onTick
		hooks.finish += h.finish
		fanSum += t.fanSum
		fanMax += t.fanMax
		samples += t.poolSamples
		poolSum += t.poolSum
		if t.poolMax > poolMax {
			poolMax = t.poolMax
		}
		legBlocks += t.legBlocks
		cachedPlans += t.cachedPlans
	}

	// Tick self time is the Tick span minus the cities' OnTick inside it.
	// With no proxy the platform is the front tier, and behind the proxy
	// the two tiers cannot be told apart from outside the program, so the
	// platform and proxy entries report the same measurement.
	tickSelf := perPass(tick - fanSum)
	res.add("platform.submit_self_s", perPass(submit-hooks.onOrder), "s")
	res.add("platform.tick_self_s", tickSelf, "s")
	res.add("platform.close_s", perPass(closeT), "s")
	res.add("platform.events", float64(events)/n, "count")
	res.add("platform.event_queue_high_water", float64(highWater), "count")
	res.add("platform.event_blocked_sends", float64(blocked)/n, "count")

	res.add("proxy.tick_self_s", tickSelf, "s")
	res.add("proxy.city_tick_sum_s", perPass(fanSum), "s")
	res.add("proxy.city_tick_max_sum_s", perPass(fanMax), "s")
	res.add("proxy.city_parallelism_bound", fanSum.Seconds()/fanMax.Seconds(), "x")

	res.add("core.on_order_s", perPass(hooks.onOrder), "s")
	res.add("core.on_tick_s", perPass(hooks.onTick), "s")
	res.add("core.finish_s", perPass(hooks.finish), "s")
	res.add("core.init_s", perPass(hooks.init), "s")

	// Plan-cache counters are deterministic per seed: the last pass's
	// snapshot stands for all of them.
	pc := traced[len(traced)-1].stats.PoolCache
	lookups := pc.Hits + pc.NegativeHits + pc.Misses + pc.Renewed
	res.add("pool.size_mean", float64(poolSum)/float64(samples), "orders")
	res.add("pool.size_max", float64(poolMax), "orders")
	res.add("pool.cache_hits", float64(pc.Hits), "count")
	res.add("pool.cache_negative_hits", float64(pc.NegativeHits), "count")
	res.add("pool.cache_misses", float64(pc.Misses), "count")
	res.add("pool.cache_renewed", float64(pc.Renewed), "count")
	res.add("pool.cache_evicted", float64(pc.Evicted), "count")
	res.add("pool.cache_lookups", float64(lookups), "count")
	res.add("pool.cache_hit_rate", pc.HitRate(), "fraction")
	res.add("pool.plans_materialized", float64(pc.PlansMaterialized), "count")
	res.add("pool.plans_reused", float64(pc.PlansReused), "count")
	res.add("pool.leg_blocks", float64(legBlocks)/n, "count")
	res.add("pool.cached_plans", float64(cachedPlans)/n, "count")

	cpuShare := func(name, module string, self bool) {
		counts := sp.inclusive
		if self {
			counts = sp.self
		}
		res.add(name, sp.share(counts, module), "fraction")
	}
	cpuShare("core.cpu_share", "core", false)
	cpuShare("pool.cpu_share", "pool", false)
	cpuShare("pool.self_cpu_share", "pool", true)
	cpuShare("route.cpu_share", "route", false)
	cpuShare("route.self_cpu_share", "route", true)
	cpuShare("roadnet.cpu_share", "roadnet", false)
	cpuShare("roadnet.self_cpu_share", "roadnet", true)
	cpuShare("gridindex.cpu_share", "gridindex", false)
	cpuShare("gridindex.self_cpu_share", "gridindex", true)
	cpuShare("strategy.cpu_share", "strategy", false)
	cpuShare("mdp.cpu_share", "mdp", false)
	cpuShare("nn.cpu_share", "nn", false)
	cpuShare("nn.self_cpu_share", "nn", true)
	res.add("trace.cpu_samples", float64(sp.total), "count")

	res.add("roadnet.build_s", median(setupField(setups, func(s setupTimes) time.Duration { return s.build })), "s")
	res.add("exp.train_s", median(setupField(setups, func(s setupTimes) time.Duration { return s.train })), "s")

	usedCPU := (rt1.cpu - rt1.idle) - (rt0.cpu - rt0.idle)
	res.add("runtime.alloc_mb", float64(rt1.totalAlloc-rt0.totalAlloc)/1e6/n, "MB")
	res.add("runtime.gc_cycles", float64(rt1.numGC-rt0.numGC)/n, "count")
	res.add("runtime.gc_cpu_share", (rt1.gcCPU-rt0.gcCPU)/usedCPU, "fraction")

	// The traced passes repeat the untraced passes' windows one for one.
	var plainTime, tracedTime time.Duration
	for i := range traced {
		plainTime += plain[i].elapsed
		tracedTime += traced[i].elapsed
	}
	res.add("trace.overhead_frac", tracedTime.Seconds()/plainTime.Seconds()-1, "fraction")
}
