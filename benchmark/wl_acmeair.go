package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"asyncg"
	"asyncg/internal/explore"
)

// acmeair-coverage: repeated coverage-guided explorations of the AcmeAir
// explore target, the shape of the explore-coverage smoke (20 requests,
// 3 clients, 24 runs). Batch work: one driver issues explorations back
// to back and the throughput is reported.
const (
	acmeRequests = 20
	acmeClients  = 3
	acmeRuns     = 24
	// acmeInputs explorations are cycled through. Their driver seeds
	// come from the fixed panel 1..acmeDrivers (seed 1 is the smoke's
	// target), so every run averages over the same request mixes; the
	// workload seed draws each exploration's strategy seed.
	acmeInputs  = 16
	acmeDrivers = 8
	// acmeFloor is the explore-coverage smoke's floor of distinct graphs
	// at seed 1.
	acmeFloor = 8
)

type acmeInput struct {
	shape   acmeAirShape
	covSeed int64
	target  explore.Target
	// ref is the canonical Result JSON of a one-worker exploration, the
	// oracle every operation on this input must equal byte for byte.
	ref []byte
	// warmAllocs is one runner's warm-up: the allocations of its first
	// run beyond those of a steady-state run.
	warmAllocs int64
}

func newAcmeInputs(seed int64) []*acmeInput {
	rng := rand.New(rand.NewSource(seed))
	ins := make([]*acmeInput, acmeInputs)
	for i := range ins {
		shape := acmeAirShape{requests: acmeRequests, clients: acmeClients, seed: int64(i%acmeDrivers + 1)}
		ins[i] = &acmeInput{
			shape:   shape,
			covSeed: 1 + rng.Int63n(1<<30),
			target:  explore.AcmeAirTarget(shape.requests, shape.clients, shape.seed),
		}
	}
	return ins
}

func exploreAcme(t explore.Target, covSeed int64, s explore.Strategy, workers int) (*explore.Result, error) {
	return explore.Run(context.Background(), t,
		explore.WithRuns(acmeRuns), explore.WithSeed(covSeed),
		explore.WithStrategy(s), explore.WithWorkers(workers))
}

// coldRun builds a runner and times its first and a steady-state run.
func coldRun(t explore.Target, extra ...asyncg.Option) (first, steady time.Duration, warmAllocs int64) {
	a0 := allocCount()
	t0 := time.Now()
	r := t.NewRunner()
	r.Run(append(extra, asyncg.WithScheduler(&playback{}))...)
	first = time.Since(t0)
	a1 := allocCount()
	r.Reset()
	t1 := time.Now()
	r.Run(append(extra, asyncg.WithScheduler(&playback{}))...)
	steady = time.Since(t1)
	a2 := allocCount()
	return first, steady, (a1 - a0) - (a2 - a1)
}

func runAcmeAirCoverage(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	ins := newAcmeInputs(cfg.seed)

	// Oracle set-up: the smoke floor, then one-worker references.
	smoke, err := exploreAcme(explore.AcmeAirTarget(acmeRequests, acmeClients, 1), 1, explore.NewCoverage(1), 1)
	if err != nil {
		return nil, fmt.Errorf("explore-coverage smoke: %w", err)
	}
	if smoke.NewGraphs < acmeFloor {
		out.unexpected = append(out.unexpected, fmt.Sprintf("explore-coverage floor: %d distinct graphs at seed 1, want >= %d", smoke.NewGraphs, acmeFloor))
	}
	refStart := time.Now()
	for _, in := range ins {
		res, err := exploreAcme(in.target, in.covSeed, explore.NewCoverage(in.covSeed), 1)
		if err != nil {
			return nil, fmt.Errorf("reference exploration: %w", err)
		}
		if in.ref, err = json.Marshal(res); err != nil {
			return nil, err
		}
	}
	out.notef("references: %d one-worker explorations in %v", len(ins), time.Since(refStart).Round(time.Millisecond))

	// setup_s: the first NewRunner+Run of every input's runner (sample
	// data load included), median of setupReps repetitions.
	var setups, warmups []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		total := time.Duration(0)
		for _, in := range ins {
			first, steady, warm := coldRun(in.target)
			total += first
			warmups = append(warmups, float64(first-steady)/1e6)
			if rep == 0 {
				in.warmAllocs = warm
			}
		}
		setups = append(setups, total.Seconds())
	}
	out.metrics["setup_s"] = median(setups)
	out.metrics["explore.runner_warmup_ms"] = median(warmups)

	// The measured window.
	check := func(in *acmeInput, res *explore.Result, err error) {
		out.attempted++
		if err != nil {
			out.fail("exploration failed: %v", err)
			return
		}
		got, err := json.Marshal(res)
		if err != nil || !bytes.Equal(got, in.ref) {
			out.fail("%s: Result differs from the one-worker reference", in.target.Name)
		}
	}
	runtime.GC()
	var lat []float64
	var schedules, warmAllocs int64
	a0 := allocCount()
	start := time.Now()
	for i := 0; time.Since(start) < cfg.window(); i++ {
		in := ins[i%len(ins)]
		probe := &runnerProbe{}
		t0 := time.Now()
		res, err := exploreAcme(probe.wrap(in.target), in.covSeed, explore.NewCoverage(in.covSeed), exploreWorkers)
		lat = append(lat, float64(time.Since(t0))/1e6)
		check(in, res, err)
		if res != nil {
			schedules += int64(len(res.Runs))
		}
		warmAllocs += probe.warmed.Load() * in.warmAllocs
	}
	allocs := allocCount() - a0
	// Throughput is taken at the median exploration time, so a stall
	// of the host during a few explorations does not move it.
	perSec := ratio(float64(schedules)/float64(len(lat)), median(lat)/1e3)
	out.metrics["schedules_per_s"] = perSec
	out.metrics["requests_per_s"] = perSec * acmeRequests
	latencyMetrics(out, lat)
	perSched := ratio(float64(allocs-warmAllocs), float64(schedules))
	out.metrics["allocs_per_schedule"] = perSched
	out.metrics["allocs_per_request"] = perSched / acmeRequests
	out.notef("%d explorations, %d schedules; %d warm-up allocations excluded", len(lat), schedules, warmAllocs)
	if !cfg.trace {
		return out, nil
	}

	// The traced pass: the same operations with the strategy and the
	// runners wrapped, then replays of the recorded schedules through a
	// timed builder and analyzer.
	rec := newRecorder()
	type recorded struct {
		in *acmeInput
		rr explore.RunResult
	}
	var runs []recorded
	var tracedLat []float64
	var wallNs float64
	var tSchedules, newGraphs, picks int64
	start = time.Now()
	for i := 0; time.Since(start) < cfg.window(); i++ {
		in := ins[i%len(ins)]
		opSpan := rec.beginOp("op")
		op := opSpan.id()
		ex := rec.begin("explore.Run", op, op)
		probe := &runnerProbe{rec: rec, op: op, parent: ex.id()}
		ts, strat := wrapStrategy(explore.NewCoverage(in.covSeed), rec, op, ex.id())
		res, err := exploreAcme(probe.wrap(in.target), in.covSeed, strat, exploreWorkers)
		exSpan := ex.end()
		tracedLat = append(tracedLat, float64(opSpan.end().Dur())/1e6)
		check(in, res, err)
		if res == nil {
			continue
		}
		wallNs += float64(exSpan.Dur())
		tSchedules += int64(len(res.Runs))
		newGraphs += int64(res.NewGraphs)
		picks += ts.picks
		if i < len(ins) { // later operations repeat these schedules
			for _, rr := range res.Runs {
				runs = append(runs, recorded{in, rr})
			}
		}
	}
	exploreMetrics(out, rec.Spans(), wallNs, tSchedules, newGraphs, picks)
	out.metrics["bench.trace_overhead_ratio"] = ratio(mean(tracedLat), mean(lat))

	at, err := listenLoc(ins[0].shape)
	if err != nil {
		return nil, err
	}
	lt := layerTotals{rec: rec}
	replayStart := time.Now()
	for i, r := range runs {
		if i > 0 && time.Since(replayStart) > cfg.window()/2 {
			break
		}
		lt.check(r.in.target.Name, replayAcmeAir(r.in.shape, at, r.rr.Token, &lt), r.rr)
	}
	layerMetrics(out, &lt)
	out.metrics["acmeair.fixture_share"] = ratio(out.metrics["acmeair.fixture_load_us"], out.metrics["explore.run_us"])
	out.spans = rec.Spans()
	out.notef("traced: %d explorations; replayed %d of %d recorded schedules", len(tracedLat), lt.runs, len(runs))
	return out, nil
}
