package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"watter/internal/dataset"
	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/sim"
)

// small shrinks a workload's demand and fleet tenfold and its training to
// a token run, keeping the algorithm, networks and front tier.
func small(w workload) workload {
	cities := make([]cityDef, len(w.cities))
	for i, c := range w.cities {
		c.orders, c.workers = c.orders/10, c.workers/10
		cities[i] = c
	}
	w.cities = cities
	if w.trainOrders > 0 {
		w.trainOrders, w.trainSteps = 200, 10
	}
	return w
}

// livePass runs one events-subscribed pass, decorated or not, and returns
// the per-city metrics and each city's plan-cache counters.
func livePass(t *testing.T, sys *system, decorated bool) ([]sim.Metrics, []platform.Stats) {
	t.Helper()
	var tr *tracer
	if decorated {
		tr = newTracer(len(sys.w.cities))
	}
	f, err := sys.instance(sys.windows[0], true, tr)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := newMemProbe()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := runPass(f, sys.windows[0].feed(), tr, mem)
	if err != nil {
		t.Fatal(err)
	}
	var stats []platform.Stats
	switch f := f.(type) {
	case *platformFront:
		stats = append(stats, f.p.Stats())
	case *proxyFront:
		for _, id := range f.ids {
			st, err := f.x.Admin().CityStats(id)
			if err != nil {
				t.Fatal(err)
			}
			stats = append(stats, st)
		}
	}
	return ps.metrics, stats
}

// TestDecoratorIsTransparent pins that timing the hooks changes nothing:
// decorated and undecorated passes give bit-identical metrics and
// plan-cache counters for every city of every workload, and both equal the
// batch replay.
func TestDecoratorIsTransparent(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := small(w)
			in := w.inputs(3)
			sys, _, err := setup(w, in)
			if err != nil {
				t.Fatal(err)
			}
			f, err := sys.instance(sys.windows[0], false, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := f.Replay(sys.windows[0])
			if err != nil {
				t.Fatal(err)
			}
			plainM, plainS := livePass(t, sys, false)
			tracedM, tracedS := livePass(t, sys, true)
			for i := range w.cities {
				if plainM[i] != ref[i] {
					t.Errorf("city %d: live %+v, replay %+v", i, plainM[i], ref[i])
				}
				if tracedM[i] != plainM[i] {
					t.Errorf("city %d: decorated %+v, plain %+v", i, tracedM[i], plainM[i])
				}
				if !plainS[i].PoolCacheActive || tracedS[i].PoolCache != plainS[i].PoolCache {
					t.Errorf("city %d: decorated cache %+v, plain %+v (active %v)",
						i, tracedS[i].PoolCache, plainS[i].PoolCache, plainS[i].PoolCacheActive)
				}
				if plainM[i].Served == 0 {
					t.Errorf("city %d served nothing; the variant is too small to compare", i)
				}
			}
		})
	}
}

// failingFront fails every third Submit and every Tick after the second.
type failingFront struct {
	front
	ticks, submits int
}

func (f *failingFront) Tick() (float64, error) {
	f.ticks++
	if f.ticks > 2 {
		return 0, errors.New("tick refused")
	}
	return f.front.Tick()
}

func (f *failingFront) Submit(city int, o *order.Order) error {
	f.submits++
	if f.submits%3 == 0 {
		return errors.New("submit refused")
	}
	return f.front.Submit(city, o)
}

// TestFailedCallsAreCounted pins that a failed Tick or Submit is counted
// and the pass goes on: every call is still made and timed, so failed ÷
// attempted is a rate and the passes of a window stay aligned call by
// call.
func TestFailedCallsAreCounted(t *testing.T) {
	w := small(workloads[0])
	sys, _, err := setup(w, w.inputs(3))
	if err != nil {
		t.Fatal(err)
	}
	inner, err := sys.instance(sys.windows[0], true, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &failingFront{front: inner}
	items := sys.windows[0].feed()
	mem, err := newMemProbe()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := runPass(f, items, nil, mem)
	if err == nil {
		t.Fatal("no error reported for the failed calls")
	}
	wantFailed := len(items)/3 + f.ticks - 2
	if ps.failed != wantFailed || ps.attempted != len(items)+f.ticks+1 {
		t.Errorf("failed %d of %d attempted, want %d of %d", ps.failed, ps.attempted, wantFailed, len(items)+f.ticks+1)
	}
	if len(ps.submitLat) != len(items) || len(ps.tickLat) != f.ticks {
		t.Errorf("%d submit and %d tick spans, want %d and %d", len(ps.submitLat), len(ps.tickLat), len(items), f.ticks)
	}
	if ps.submitted != len(items)-len(items)/3 {
		t.Errorf("%d submitted, want %d", ps.submitted, len(items)-len(items)/3)
	}
	if ps.peakResident == 0 {
		t.Error("no resident memory sampled")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"watter/internal/route.(*Planner).planDP":        "route",
		"watter/internal/pool.(*Pool).refreshBest.func1": "pool",
		"watter/internal/nn.(*MLP).Forward":              "nn",
		"watter/internal/roadnet.searchFrom[...]":        "roadnet",
		"main.(*timedAlg).OnTick":                        "",
		"runtime.mallocgc":                               "",
		"watter/internal":                                "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// protoWriter encodes the profile.proto subset parseProfile reads.
type protoWriter struct{ b []byte }

func (w *protoWriter) varint(field int, v uint64) {
	w.b = binary.AppendUvarint(w.b, uint64(field)<<3|wireVarint)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *protoWriter) bytes(field int, p []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(field)<<3|wireBytes)
	w.b = binary.AppendUvarint(w.b, uint64(len(p)))
	w.b = append(w.b, p...)
}

func (w *protoWriter) packed(field int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	w.bytes(field, p)
}

// TestProfileSplitKnown decodes a hand-built profile whose module split is
// known: inclusive counts every module on a stack once, self credits the
// innermost module frame, inlined frames count as frames, and stacks with
// no module frame count only towards the total.
func TestProfileSplitKnown(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"watter/internal/roadnet.(*Graph).searchFrom",
		"watter/internal/pool.(*Pool).Insert",
		"watter/internal/route.(*Planner).planDP",
		"watter/internal/pool.(*Pool).refreshBest",
		"runtime.mallocgc",
		"watter/internal/nn.(*MLP).Forward",
		"watter/internal/mdp.(*ValueThresholdSource).Threshold",
		"main.(*timedAlg).OnTick",
	}
	var p protoWriter
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} { // samples/count, cpu/nanoseconds
		var m protoWriter
		m.varint(1, vt[0])
		m.varint(2, vt[1])
		p.bytes(fProfileSampleType, m.b)
	}
	// Function i+1 is named strs[i+5]; location i+1 calls function i+1,
	// except location 9, which holds nn.Forward inlined into mdp.
	for i := 0; i < len(strs)-5; i++ {
		var f protoWriter
		f.varint(fFunctionID, uint64(i+1))
		f.varint(fFunctionName, uint64(i+5))
		p.bytes(fProfileFunction, f.b)
		var l protoWriter
		l.varint(fLocationID, uint64(i+1))
		var line protoWriter
		line.varint(fLineFunction, uint64(i+1))
		l.bytes(fLocationLine, line.b)
		p.bytes(fProfileLocation, l.b)
	}
	var inl protoWriter
	inl.varint(fLocationID, 9)
	for _, fn := range []uint64{6, 7} {
		var line protoWriter
		line.varint(fLineFunction, fn)
		inl.bytes(fLocationLine, line.b)
	}
	p.bytes(fProfileLocation, inl.b)
	sample := func(count uint64, locs ...uint64) {
		var s protoWriter
		s.packed(fSampleLocation, locs...)
		s.packed(fSampleValue, count, count*10_000_000)
		p.bytes(fProfileSample, s.b)
	}
	sample(3, 1, 2, 8)    // roadnet ← pool ← main
	sample(2, 5, 3, 4, 2) // runtime ← route ← pool ← pool
	sample(5, 5)          // runtime only
	sample(4, 9, 8)       // nn inlined into mdp ← main
	for _, s := range strs {
		p.bytes(fProfileStrings, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	prof, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sp := prof.split()
	if sp.total != 14 {
		t.Fatalf("total %d, want 14", sp.total)
	}
	wantIncl := map[string]int64{"roadnet": 3, "pool": 5, "route": 2, "nn": 4, "mdp": 4}
	wantSelf := map[string]int64{"roadnet": 3, "route": 2, "nn": 4}
	for _, m := range []string{"roadnet", "pool", "route", "nn", "mdp", "core"} {
		if sp.inclusive[m] != wantIncl[m] || sp.self[m] != wantSelf[m] {
			t.Errorf("%s: inclusive %d self %d, want %d %d", m, sp.inclusive[m], sp.self[m], wantIncl[m], wantSelf[m])
		}
	}
	if got := sp.share(sp.inclusive, "pool"); got != 5.0/14 {
		t.Errorf("pool share %v", got)
	}
}

// TestProfileOfRealRun decodes what runtime/pprof writes: a profile taken
// while only routing queries run is credited to roadnet.
func TestProfileOfRealRun(t *testing.T) {
	p := dataset.CDC()
	p.RoadJitter, p.RoadSeed = 0.3, 1
	net := p.Build().Net
	n := net.NumNodes()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	var sink float64
	for start, i := time.Now(), 0; time.Since(start) < 500*time.Millisecond; i++ {
		sink += net.Cost(geo.NodeID(i%n), geo.NodeID((i*7919+n/2)%n))
	}
	pprof.StopCPUProfile()
	if sink == 0 {
		t.Fatal("no routing work done")
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sp := prof.split()
	if sp.total < 10 {
		t.Skipf("only %d samples; the profiler did not keep up", sp.total)
	}
	if share := sp.share(sp.inclusive, "roadnet"); share < 0.8 {
		t.Errorf("roadnet inclusive share %.2f of %d samples, want >= 0.8", share, sp.total)
	}
	if sp.self["roadnet"] != sp.inclusive["roadnet"] {
		t.Errorf("roadnet self %d != inclusive %d with no other module running", sp.self["roadnet"], sp.inclusive["roadnet"])
	}
}

// TestMetricsMatchBenchmarkJSON runs both modes end to end on a small
// variant and checks that they print exactly the metrics BENCHMARK.json
// declares, with the declared units, and that every check passes.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		res, err := bench(small(workloads[0]), 3, 200*time.Millisecond, traced)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.problems) > 0 || res.failed > 0 {
			t.Fatalf("traced=%v: checks failed: %v (%d failed calls)", traced, res.problems, res.failed)
		}
		if len(res.metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, BENCHMARK.json declares %d", traced, len(res.metrics), len(want))
		}
		for i := 0; i < len(res.metrics) && i < len(want); i++ {
			if m := res.metrics[i]; m.name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("traced=%v: metric %d is %s [%s], declared %s [%s]", traced, i, m.name, m.Unit, want[i].Name, want[i].Unit)
			}
		}
	}
}
