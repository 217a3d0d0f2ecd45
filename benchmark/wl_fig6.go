package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"asyncg/internal/acmeair"
	"asyncg/internal/asyncgraph"
	"asyncg/internal/detect"
	"asyncg/internal/eventloop"
	"asyncg/internal/loc"
	"asyncg/internal/mongosim"
	"asyncg/internal/netio"
	"asyncg/internal/vm"
	"asyncg/internal/workload"
)

// fig6-instrumented: the Fig. 6(a) "withpromise" setting. Each operation
// is one long AcmeAir run under the workload driver with the full Async
// Graph builder and detectors attached: no exploration and no Reset, so
// one large graph grows for the whole run. Batch work, one operation at
// a time.
const (
	fig6Requests = 500
	fig6Clients  = 16
	// fig6Inputs distinct workload seeds are cycled through.
	fig6Inputs = 3
)

type fig6Input struct {
	seed int64
	// baselineP95 is the virtual-time p95 request latency with the tool
	// off; the tool must not change it.
	baselineP95 time.Duration
	baselineMs  []float64
	// fingerprint and warnings are the first instrumented run's verdict;
	// every later run of the input must repeat it.
	fingerprint string
	warnings    []string
}

// toolMode selects what is attached to the loop.
type toolMode int

const (
	toolOff    toolMode = iota // Fig. 6(a) baseline
	toolOn                     // builder and analyzer, untimed
	toolTraced                 // builder and analyzer behind timing wrappers
)

type fig6Run struct {
	completed, failed int
	p95               time.Duration
	fingerprint       string
	warnings          []string
	err               error
}

// fig6Pipeline is one run's runtime, built and ready to run.
type fig6Pipeline struct {
	loop     *eventloop.Loop
	builder  *asyncgraph.Builder
	analyzer *detect.Analyzer
	tool     *tool
	app      *acmeair.App
	driver   *workload.Driver
}

// buildFig6 assembles the runtime of one run: loop, tool, network,
// database with the sample data, application and driver.
func buildFig6(seed int64, mode toolMode, lt *layerTotals) *fig6Pipeline {
	p := &fig6Pipeline{loop: eventloop.New(eventloop.Options{TickLimit: 100_000_000})}
	switch mode {
	case toolOn:
		p.builder = asyncgraph.NewBuilder(asyncgraph.DefaultConfig())
		p.analyzer = detect.NewAnalyzer(p.builder, detect.DefaultConfig())
		p.loop.Probes().Attach(p.builder)
		p.loop.Probes().Attach(p.analyzer)
	case toolTraced:
		p.tool = attachTool(p.loop)
	}
	nw := netio.New(p.loop, netio.Options{})
	db := mongosim.New(p.loop, mongosim.Options{})
	if lt != nil {
		loadFixture(db, lt)
	} else {
		acmeair.LoadSampleData(db, acmeair.DefaultDataSpec())
	}
	p.app = acmeair.New(p.loop, nw, db, acmeair.Config{UsePromises: true})
	p.driver = workload.NewDriver(nw, workload.Options{
		Port: p.app.Port(), Clients: fig6Clients, Requests: fig6Requests, Seed: seed,
	})
	return p
}

// run executes the pipeline and returns the verdict.
func (p *fig6Pipeline) run(lt *layerTotals) fig6Run {
	var listenErr error
	main := vm.NewFuncAt("benchMain", loc.Here(), func([]vm.Value) vm.Value {
		if listenErr = p.app.Listen(loc.Here()); listenErr == nil {
			p.driver.Start()
		}
		return vm.Undefined
	})
	t0 := time.Now()
	err := p.loop.Run(main)
	if lt != nil {
		lt.loopRun(p.tool, t0, time.Since(t0))
	}
	if err == nil {
		err = listenErr
	}
	st := p.driver.Stats()
	r := fig6Run{completed: st.Completed, failed: st.Failed, p95: st.Percentile(95), err: err}
	switch {
	case p.tool != nil:
		v := p.tool.finish(lt, p.loop.Tick(), nil)
		lt.requestsFailed += int64(st.Failed)
		r.fingerprint, r.warnings = v.fingerprint, v.warnings
	case p.builder != nil:
		r.warnings = warnKeys(p.analyzer.Finish())
		r.fingerprint = p.builder.Graph().Fingerprint()
	}
	return r
}

func runFig6(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	rng := rand.New(rand.NewSource(cfg.seed))
	ins := make([]*fig6Input, fig6Inputs)
	for i := range ins {
		ins[i] = &fig6Input{seed: 1 + rng.Int63n(1<<30)}
	}

	// Oracle set-up: each input's tool-off run.
	for _, in := range ins {
		t0 := time.Now()
		r := buildFig6(in.seed, toolOff, nil).run(nil)
		in.baselineMs = append(in.baselineMs, float64(time.Since(t0))/1e6)
		if r.err != nil || r.completed != fig6Requests || r.failed != 0 {
			return nil, fmt.Errorf("tool-off run of seed %d: %d/%d completed, %d failed, err %v", in.seed, r.completed, fig6Requests, r.failed, r.err)
		}
		in.baselineP95 = r.p95
	}

	// setup_s: building every input's runtime (sample data load
	// included) with the tool attached, median of setupReps repetitions.
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		for _, in := range ins {
			buildFig6(in.seed, toolOn, nil)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.metrics["setup_s"] = median(setups)

	check := func(in *fig6Input, r fig6Run) {
		out.attempted++
		switch {
		case r.err != nil:
			out.fail("seed %d: run failed: %v", in.seed, r.err)
		case r.completed != fig6Requests || r.failed != 0:
			out.fail("seed %d: %d/%d requests completed, %d failed", in.seed, r.completed, fig6Requests, r.failed)
		case r.p95 != in.baselineP95:
			out.fail("seed %d: virtual p95 %v with the tool on, %v off", in.seed, r.p95, in.baselineP95)
		case in.fingerprint == "":
			in.fingerprint, in.warnings = r.fingerprint, r.warnings
		case r.fingerprint != in.fingerprint || !slices.Equal(r.warnings, in.warnings):
			out.fail("seed %d: verdict differs from the input's first run", in.seed)
		}
	}

	runtime.GC()
	var lat []float64
	a0 := allocCount()
	start := time.Now()
	for i := 0; time.Since(start) < cfg.window(); i++ {
		in := ins[i%len(ins)]
		t0 := time.Now()
		r := buildFig6(in.seed, toolOn, nil).run(nil)
		lat = append(lat, float64(time.Since(t0))/1e6)
		check(in, r)
	}
	allocs := float64(allocCount() - a0)
	ops := float64(len(lat))
	// Throughput is taken at the median run time, so a stall of the
	// host during a few runs does not move it.
	out.metrics["schedules_per_s"] = 1e3 / median(lat)
	out.metrics["requests_per_s"] = fig6Requests * 1e3 / median(lat)
	latencyMetrics(out, lat)
	out.metrics["allocs_per_schedule"] = allocs / ops
	out.metrics["allocs_per_request"] = allocs / (ops * fig6Requests)
	out.notef("%d instrumented runs of %d requests from %d clients", len(lat), fig6Requests, fig6Clients)
	if !cfg.trace {
		return out, nil
	}

	// The traced pass: the same runs with the builder's and analyzer's
	// hooks timed, and the tool-off runs that bound requests_per_s.
	lt := layerTotals{rec: newRecorder()}
	var tracedLat []float64
	start = time.Now()
	for i := 0; time.Since(start) < cfg.window(); i++ {
		in := ins[i%len(ins)]
		t0 := time.Now()
		lt.beginRun("op")
		r := buildFig6(in.seed, toolTraced, &lt).run(&lt)
		lt.endRun()
		tracedLat = append(tracedLat, float64(time.Since(t0))/1e6)
		check(in, r)
	}
	for _, in := range ins {
		t0 := time.Now()
		buildFig6(in.seed, toolOff, nil).run(nil)
		in.baselineMs = append(in.baselineMs, float64(time.Since(t0))/1e6)
	}
	var base []float64
	for _, in := range ins {
		base = append(base, in.baselineMs...)
	}
	layerMetrics(out, &lt)
	out.metrics["eventloop.baseline_ms"] = median(base)
	out.metrics["acmeair.fixture_share"] = ratio(float64(lt.fixtureNs), sum(tracedLat)*1e6)
	out.metrics["bench.trace_overhead_ratio"] = ratio(mean(tracedLat), mean(lat))
	out.spans = lt.rec.Spans()
	out.notef("traced: %d instrumented runs", len(tracedLat))
	return out, nil
}
