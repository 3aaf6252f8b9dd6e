// Command perfbench is the repository's benchmark. It drives one WATTER
// workload live through the public constructors (dataset.Profile.Build,
// exp.Runner.Build, platform.New or proxy.New) from a single feeding
// goroutine, checks the outputs, and prints its metrics; the last line of
// standard output is one JSON object.
//
//	perfbench --workload grid-timeout --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics of untraced passes; --trace 1
// prints the per-layer split of traced passes (hook spans, per-tick city
// fan-out, pool samples and a CPU profile credited to modules) and its
// overhead against untraced passes of the same invocation.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"watter/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: grid-timeout, road-online or multicity-expect")
	seed := fs.Int64("seed", 1, "seed of the generated orders")
	seconds := fs.Int("seconds", 20, "how long the passes are measured")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload <name> --seconds >= 1 --trace 0|1:", err)
		return 2
	}
	res, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	fmt.Println(res.info)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, map[string]metric{}}
	for _, m := range res.metrics {
		fmt.Printf("%-34s %14.6g %s\n", m.name, m.Value, m.Unit)
		out.Metrics[m.name] = m
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metric struct {
	name  string
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	info              string
	metrics           []metric
	attempted, failed int
	problems          []string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) checkf(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func bench(w workload, seed int64, measure time.Duration, traced bool) (*result, error) {
	windows := w.inputs(seed)

	// Set-up runs at least three times and for at least a second, so its
	// median is steady even where one build takes microseconds.
	var setups []setupTimes
	var sys *system
	var spent time.Duration
	for len(setups) < 3 || spent < time.Second {
		s, st, err := setup(w, windows)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		sys = s
		setups = append(setups, st)
		spent += st.total
	}

	// The batch replay of the first window is the reference its live
	// passes must reproduce bit for bit; it also warms the network and
	// allocator before timing.
	f, err := sys.instance(windows[0], false, nil)
	if err != nil {
		return nil, err
	}
	ref, err := f.Replay(windows[0])
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	mem, err := newMemProbe()
	if err != nil {
		return nil, fmt.Errorf("resident memory: %w", err)
	}
	r := &runner{sys: sys, res: &result{}, mem: mem, seen: make([][]sim.Metrics, len(windows))}
	r.seen[0] = ref
	for _, win := range windows {
		r.feeds = append(r.feeds, win.feed())
	}
	res := r.res

	// Untraced passes go through every window at least once, then cycle
	// until the time is spent; a traced invocation spends half of it on
	// untraced passes and then repeats exactly their windows traced.
	var plain []pass
	deadline := time.Now().Add(measure)
	if traced {
		deadline = time.Now().Add(measure / 2)
	}
	for n := 0; (!traced && n < len(windows)) || n == 0 || time.Now().Before(deadline); n++ {
		ps, err := r.pass(n%len(windows), nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, ps)
	}

	nodes, orders, workers := 0, 0, 0
	for i, c := range w.cities {
		nodes += sys.nets[i].NumNodes()
		orders += len(windows[0][i].orders)
		workers += c.workers
	}
	res.info = fmt.Sprintf("# workload=%s seed=%d gomaxprocs=%d network=%T nodes=%d orders=%d workers=%d algorithm=%s cities=%d windows=%d passes=%d ticks/pass=%d",
		w.name, seed, runtime.GOMAXPROCS(0), sys.nets[0], nodes, orders, workers, w.algorithm,
		len(w.cities), len(windows), len(plain), len(plain[0].tickLat))

	if !traced {
		q := quality(r.seen)
		ticks, submits, rate := perCall(plain)
		res.add("orders_per_s", rate, "orders/s")
		res.add("tick_p50_ms", ms(quantile(ticks, 0.50)), "ms")
		res.add("tick_p99_ms", ms(quantile(ticks, 0.99)), "ms")
		res.add("submit_p50_ms", ms(quantile(submits, 0.50)), "ms")
		res.add("submit_p99_ms", ms(quantile(submits, 0.99)), "ms")
		res.add("setup_s", median(setupField(setups, func(s setupTimes) time.Duration { return s.total })), "s")
		res.add("peak_rss_mb", median(peaks(plain)), "MB")
		res.add("extra_time_per_order_s", q.extra, "s")
		res.add("service_rate", q.service, "fraction")
		res.add("unified_cost_per_order_s", q.unified, "s")
		res.add("success_rate", 1-float64(res.failed)/float64(res.attempted), "fraction")
		return res, nil
	}

	// Traced passes: hook spans, per-tick fan-out, pool samples, and a CPU
	// profile covering exactly these passes.
	var prof bytes.Buffer
	var tracers []*tracer
	var tracedPasses []pass
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	for _, p := range plain {
		tr := newTracer(len(w.cities))
		ps, err := r.pass(p.window, tr)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, err
		}
		tracedPasses = append(tracedPasses, ps)
		tracers = append(tracers, tr)
	}
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	cpu, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	layerMetrics(res, setups, plain, tracedPasses, tracers, cpu.split(), rt0, rt1)
	return res, nil
}

// runner runs and checks passes. seen holds each window's metrics from its
// first pass (the replay, for window 0); later passes must equal them.
type runner struct {
	sys   *system
	res   *result
	mem   *memProbe
	feeds [][]feedItem
	seen  [][]sim.Metrics
}

// pass runs window j once through a fresh instance and checks it. Failed
// calls fail the checks but keep the pass and its times; the error is only
// for an instance that could not be built.
func (r *runner) pass(j int, tr *tracer) (pass, error) {
	res := r.res
	f, err := r.sys.instance(r.sys.windows[j], true, tr)
	if err != nil {
		return pass{}, fmt.Errorf("instance: %w", err)
	}
	// Collect the previous pass's garbage and return it to the OS before
	// the clock starts, so each pass's memory peak is its own.
	debug.FreeOSMemory()
	ps, err := runPass(f, r.feeds[j], tr, r.mem)
	ps.window = j
	res.attempted += ps.attempted
	res.failed += ps.failed
	if err != nil {
		res.checkf(false, "window %d: %d failed calls, the first: %v", j, ps.failed, err)
	}
	if ps.metrics == nil {
		return ps, nil // Close failed: nothing to check
	}
	if r.seen[j] == nil {
		r.seen[j] = ps.metrics
	}
	checkPass(res, ps, r.seen[j])
	return ps, nil
}

// checkPass applies the per-pass correctness checks.
func checkPass(res *result, ps pass, ref []sim.Metrics) {
	for i := range ref {
		res.checkf(ps.metrics[i] == ref[i], "window %d city %d: metrics %+v differ from the window's first run %+v",
			ps.window, i, ps.metrics[i], ref[i])
	}
	o := ps.stats.Orders
	res.checkf(o.Submitted == ps.submitted, "ledger: %d submitted, platform counted %d", ps.submitted, o.Submitted)
	res.checkf(o.Served+o.Rejected == o.Submitted, "ledger: served %d + rejected %d != submitted %d", o.Served, o.Rejected, o.Submitted)
	res.checkf(o.Pending == 0, "ledger: %d orders pending after Close", o.Pending)
	res.checkf(ps.events.admitted == ps.submitted, "events: %d admitted, %d submitted", ps.events.admitted, ps.submitted)
}

type qualityMetrics struct{ extra, service, unified float64 }

// quality folds every window's and city's metrics: Φ/|O|, served/|O| and
// unified cost/|O| over every submitted order.
func quality(windows [][]sim.Metrics) qualityMetrics {
	var total, served int
	var extra, unified float64
	for _, ms := range windows {
		for i := range ms {
			total += ms[i].Total
			served += ms[i].Served
			extra += ms[i].ExtraTime()
			unified += ms[i].UnifiedCost()
		}
	}
	if total == 0 {
		return qualityMetrics{} // no window closed; the checks have failed
	}
	n := float64(total)
	return qualityMetrics{extra / n, float64(served) / n, unified / n}
}

func setupField(st []setupTimes, f func(setupTimes) time.Duration) []float64 {
	out := make([]float64, len(st))
	for i, s := range st {
		out[i] = f(s).Seconds()
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perCall takes each call's median time over the passes of its window
// and pools the calls of every window. The passes of a window replay one
// deterministic stream, so call k does the same work in each; its median
// drops the passes in which a collection or a busy host happened to land
// on it. The rate is orders per second of the windows' feeding times,
// each rebuilt from its calls' medians and the median Close: the time
// from the first call until Close returns.
func perCall(ps []pass) (ticks, submits []time.Duration, rate float64) {
	var total time.Duration
	var orders int
	for j := 0; ; j++ {
		var of []pass
		for _, p := range ps {
			if p.window == j {
				of = append(of, p)
			}
		}
		if len(of) == 0 {
			break
		}
		t := medians(of, func(p pass) []time.Duration { return p.tickLat })
		s := medians(of, func(p pass) []time.Duration { return p.submitLat })
		c := medians(of, func(p pass) []time.Duration { return []time.Duration{p.closeTime} })
		for _, d := range append(append(t, s...), c...) {
			total += d
		}
		ticks = append(ticks, t...)
		submits = append(submits, s...)
		orders += of[0].submitted
	}
	return ticks, submits, float64(orders) / total.Seconds()
}

// medians is the element-wise median over passes of one window.
func medians(ps []pass, lat func(pass) []time.Duration) []time.Duration {
	out := make([]time.Duration, len(lat(ps[0])))
	col := make([]float64, len(ps))
	for k := range out {
		for i, p := range ps {
			col[i] = float64(lat(p)[k])
		}
		out[k] = time.Duration(median(col))
	}
	return out
}

// quantile is the nearest-rank q-quantile of the durations.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peaks is each pass's peak resident set size in MiB. Each invocation
// runs one workload in its own process, so no other workload is in it,
// and memory is returned to the OS before every pass, so no earlier pass
// is either; taking the median over passes keeps a collection that ran
// late in one pass from setting the figure.
func peaks(ps []pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = float64(p.peakResident) / (1 << 20)
	}
	return out
}

// runtimeSample is the Go runtime's allocation, GC and CPU-class counters.
type runtimeSample struct {
	totalAlloc       uint64
	numGC            uint32
	gcCPU, cpu, idle float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		totalAlloc: ms.TotalAlloc, numGC: ms.NumGC,
		gcCPU: s[0].Value.Float64(), cpu: s[1].Value.Float64(), idle: s[2].Value.Float64(),
	}
}
