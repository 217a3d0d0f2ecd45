package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asyncg"
	"asyncg/internal/casestudy"
	"asyncg/internal/detect"
	"asyncg/internal/explore"
	"asyncg/internal/server"
)

// serve-cases: a closed loop of serveClients HTTP clients, each waiting
// for its POST /v1/jobs?wait=1 to return before sending the next, against
// one in-process analysis server. Every job explores one case study
// (buggy or fixed) with one of three strategies, all choice kinds and
// causal chains on, and keeps serve's default run metrics.
var serveStrategies = []string{explore.StrategyRandom, explore.StrategyCoverage, explore.StrategyExhaustive}

// excludedTargets lists the case targets left out of the job mix, with
// the Table I categories they violate under exploration. Every job on
// such a target would fail the oracle, and the benchmark measures only
// workloads on which no operation fails; set-up still explores each
// one with every strategy and reports whether the violation persists
// (see checkExcluded and README.md).
var excludedTargets = map[string][]detect.Category{
	// io-order and latency choices can deliver the client's end before
	// its data (witness s1.AAABAAAAAAE), so the response listener of the
	// fixed program never runs and dead-listener reads sometimes.
	"case:SO-33330277:fixed": {detect.CatDeadListener},
}

// keepResults bounds how many traced jobs keep their Result for the
// in-process comparison; the rest are checked and dropped.
const keepResults = 256

// specCycle is how many job specs are drawn per seed; clients take them
// in order and wrap around.
const specCycle = 4096

// jobSpec is the POST /v1/jobs body the benchmark sends.
type jobSpec struct {
	Target   string `json:"target"`
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`
	POR      bool   `json:"por,omitempty"`
	Kinds    string `json:"kinds"`
	Chains   bool   `json:"chains"`
}

// jobView is the part of the server's job view the benchmark reads.
type jobView struct {
	Status   string          `json:"status"`
	Error    string          `json:"error"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Result   *explore.Result `json:"result"`
}

type serveCase struct {
	spec  string
	c     casestudy.Case
	fixed bool
}

// serveCases returns every case target, split into the job mix and the
// excluded targets.
func serveCases() (mix, excluded []serveCase) {
	add := func(sc serveCase) {
		if _, ok := excludedTargets[sc.spec]; ok {
			excluded = append(excluded, sc)
		} else {
			mix = append(mix, sc)
		}
	}
	for _, c := range casestudy.All() {
		add(serveCase{spec: "case:" + c.ID, c: c})
		if c.Fixed != nil {
			add(serveCase{spec: "case:" + c.ID + ":fixed", c: c, fixed: true})
		}
	}
	return mix, excluded
}

// checkExcluded explores each excluded target once per strategy, with
// the settings of a job, and notes whether its listed Table I
// violation persists. Any other violation is an oracle failure.
func checkExcluded(out *outcome, seed int64, excluded []serveCase) error {
	kinds := explore.AllKinds()
	for _, c := range excluded {
		t, err := explore.TargetByName(c.spec)
		if err != nil {
			return err
		}
		for _, name := range serveStrategies {
			s, err := explore.StrategyFor(name, explore.StrategyParams{Seed: seed, POR: name == explore.StrategyExhaustive})
			if err != nil {
				return err
			}
			res, err := explore.Run(context.Background(), t, explore.WithSeed(seed), explore.WithStrategy(s),
				explore.WithKinds(kinds...), explore.WithWorkers(exploreWorkers))
			if err != nil {
				return fmt.Errorf("%s: %w", c.spec, err)
			}
			var listed, other []detect.Category
			for _, cat := range tableIOracle(c, res) {
				if slices.Contains(excludedTargets[c.spec], cat) {
					listed = append(listed, cat)
				} else {
					other = append(other, cat)
				}
			}
			if len(other) > 0 {
				out.unexpected = append(out.unexpected, fmt.Sprintf("excluded %s with %s: Table I violated for %v", c.spec, name, other))
			}
			if len(listed) > 0 {
				out.notef("excluded %s with %s: Table I still violated for %v", c.spec, name, listed)
			} else {
				out.notef("excluded %s with %s: follows Table I now; it can rejoin the job mix", c.spec, name)
			}
		}
	}
	return nil
}

func allKindsSpec() string {
	var ks []string
	for _, k := range explore.AllKinds() {
		ks = append(ks, string(k))
	}
	return strings.Join(ks, ",")
}

// drawSpecs draws the seed's job sequence: blocks that each hold every
// (target, strategy) pair once, in a seeded order and with seeded
// strategy seeds. Balanced blocks keep the job mix of a run, and so its
// cost, nearly the same whatever the seed.
func drawSpecs(seed int64, cases []serveCase) ([]jobSpec, []serveCase) {
	rng := rand.New(rand.NewSource(seed))
	kinds := allKindsSpec()
	specs := make([]jobSpec, specCycle)
	which := make([]serveCase, specCycle)
	block := len(cases) * len(serveStrategies)
	var order []int
	for i := range specs {
		if i%block == 0 {
			order = rng.Perm(block)
		}
		pair := order[i%block]
		c := cases[pair/len(serveStrategies)]
		strat := serveStrategies[pair%len(serveStrategies)]
		specs[i] = jobSpec{
			Target: c.spec, Strategy: strat, Seed: 1 + rng.Int63n(1<<30),
			Workers: exploreWorkers, POR: strat == explore.StrategyExhaustive,
			Kinds: kinds, Chains: true,
		}
		which[i] = c
	}
	return specs, which
}

// tableIOracle checks a job's classification against Table I: every
// expected category of a buggy program is observed on some schedule,
// and none of a fixed program is observed on any. It returns the
// violated categories.
func tableIOracle(c serveCase, res *explore.Result) []detect.Category {
	outcome := make(map[detect.Category]explore.Outcome)
	for _, cs := range res.Categories {
		outcome[cs.Category] = cs.Outcome
	}
	var bad []detect.Category
	for _, cat := range c.c.Expect {
		o, ok := outcome[cat]
		switch {
		case !ok:
			bad = append(bad, cat)
		case c.fixed && o != explore.OutcomeNever:
			bad = append(bad, cat)
		case !c.fixed && o == explore.OutcomeNever:
			bad = append(bad, cat)
		}
	}
	return bad
}

// service is one in-process analysis server on a loopback listener.
type service struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
	client *http.Client
}

func startService(lookup func(string) (explore.Target, error)) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	s := &service{
		srv:    server.New(server.Config{Workers: serveJobWorkers, LookupTarget: lookup}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("health check: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return s, nil
}

// stop shuts the HTTP server and the job pool down and waits for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	herr := s.hs.Shutdown(ctx)
	serr := s.srv.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serving: %w", err)
	}
	return errors.Join(herr, serr)
}

// jobSample is one completed POST /v1/jobs?wait=1.
type jobSample struct {
	idx     int
	latency time.Duration
	code    int
	view    jobView
	err     error
}

// closedLoop runs serveClients clients until d has passed, each taking
// the next spec in sequence, and hands every completed job to handle,
// one at a time. decorate may rewrite a spec's target (the traced pass
// tags it with its operation id); it returns the span to close when the
// job returns, and whether there is one.
func (s *service) closedLoop(d time.Duration, specs []jobSpec, decorate func(*jobSpec) (openSpan, bool), handle func(jobSample)) {
	var next atomic.Int64
	var mu sync.Mutex
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				idx := int(next.Add(1) - 1)
				spec := specs[idx%len(specs)]
				var sp openSpan
				var traced bool
				if decorate != nil {
					sp, traced = decorate(&spec)
				}
				smp := s.submit(spec)
				if traced {
					sp.end()
				}
				smp.idx = idx
				mu.Lock()
				handle(smp)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func (s *service) submit(spec jobSpec) jobSample {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobSample{err: err}
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobSample{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	smp := jobSample{latency: time.Since(t0), code: resp.StatusCode, err: err}
	if err == nil && resp.StatusCode == http.StatusOK {
		smp.err = json.Unmarshal(data, &smp.view)
	}
	return smp
}

func runServeCases(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	cases, excluded := serveCases()
	if err := checkExcluded(out, cfg.seed, excluded); err != nil {
		return nil, err
	}
	specs, which := drawSpecs(cfg.seed, cases)
	caseBySpec := make(map[string]serveCase, len(cases))
	for _, c := range cases {
		caseBySpec[c.spec] = c
	}

	// setup_s: server start-up plus the first NewRunner+Run of every
	// case target, median of setupReps repetitions.
	warmAllocs := make(map[string]int64)
	var setups, warmups []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		s, err := startService(nil)
		if err != nil {
			return nil, err
		}
		total := time.Since(t0)
		if err := s.stop(); err != nil {
			return nil, err
		}
		for _, c := range cases {
			t, err := explore.TargetByName(c.spec)
			if err != nil {
				return nil, err
			}
			first, steady, warm := coldRun(t, asyncg.WithMetrics())
			total += first
			warmups = append(warmups, float64(first-steady)/1e6)
			if rep == 0 {
				warmAllocs[c.spec] = warm
			}
		}
		setups = append(setups, total.Seconds())
	}
	out.metrics["setup_s"] = median(setups)
	out.metrics["explore.runner_warmup_ms"] = median(warmups)

	// The runners every job builds are counted, so their warm-up can be
	// excluded from allocs_per_schedule; in the traced pass they are
	// also timed, under the operation id the target spec carries.
	type probed struct {
		spec  string
		probe *runnerProbe
	}
	var pmu sync.Mutex
	var probes []probed
	var rec *Recorder
	lookup := func(spec string) (explore.Target, error) {
		name, opTag, tagged := strings.Cut(spec, "#op=")
		t, err := explore.TargetByName(name)
		if err != nil {
			return t, err
		}
		p := &runnerProbe{}
		if tagged {
			op, err := strconv.ParseInt(opTag, 10, 64)
			if err != nil {
				return t, fmt.Errorf("bad operation tag %q", opTag)
			}
			p.rec, p.op, p.parent = rec, op, op
		} else {
			pmu.Lock()
			probes = append(probes, probed{name, p})
			pmu.Unlock()
		}
		return p.wrap(t), nil
	}
	svc, err := startService(lookup)
	if err != nil {
		return nil, err
	}
	defer svc.stop()

	check := func(smp jobSample) (schedules int) {
		out.attempted++
		c := which[smp.idx%len(which)]
		switch {
		case smp.err != nil:
			out.fail("%s: %v", c.spec, smp.err)
		case smp.code == http.StatusTooManyRequests:
			out.fail("%s: refused with 429", c.spec)
		case smp.code != http.StatusOK:
			out.fail("%s: HTTP %d", c.spec, smp.code)
		case smp.view.Status != "done" || smp.view.Result == nil:
			out.fail("%s: job %s: %s", c.spec, smp.view.Status, smp.view.Error)
		default:
			if bad := tableIOracle(c, smp.view.Result); len(bad) > 0 {
				out.fail("%s: Table I violated for %v", c.spec, bad)
			}
			return len(smp.view.Result.Runs)
		}
		return 0
	}

	var lat, queue, exec, overhead []float64
	var schedules, rejected int64
	runtime.GC()
	a0 := allocCount()
	start := time.Now()
	svc.closedLoop(cfg.window(), specs, nil, func(smp jobSample) {
		schedules += int64(check(smp))
		ms := float64(smp.latency) / 1e6
		lat = append(lat, ms)
		if smp.code == http.StatusTooManyRequests {
			rejected++
		}
		v := smp.view
		if v.Started != nil && v.Finished != nil {
			queue = append(queue, float64(v.Started.Sub(v.Created))/1e6)
			exec = append(exec, float64(v.Finished.Sub(*v.Started))/1e6)
			overhead = append(overhead, ms-float64(v.Finished.Sub(v.Created))/1e6)
		}
	})
	wall := time.Since(start).Seconds()
	allocs := allocCount() - a0
	warm := int64(0)
	pmu.Lock()
	for _, p := range probes {
		warm += p.probe.warmed.Load() * warmAllocs[p.spec]
	}
	pmu.Unlock()
	jobs := float64(len(lat))
	out.metrics["schedules_per_s"] = float64(schedules) / wall
	out.metrics["requests_per_s"] = jobs / wall
	latencyMetrics(out, lat)
	out.metrics["allocs_per_schedule"] = ratio(float64(allocs-warm), float64(schedules))
	out.metrics["allocs_per_request"] = ratio(float64(allocs-warm), jobs)
	out.metrics["server.queue_wait_ms_p50"] = median(queue)
	used, q90 := tailPercentile(queue, 90)
	out.metrics["server.queue_wait_ms_p90"] = q90
	out.metrics["server.exec_ms_p50"] = median(exec)
	out.metrics["server.http_overhead_ms_p50"] = median(overhead)
	out.metrics["server.rejected"] = float64(rejected)
	out.notef("%d jobs, %d schedules; %d warm-up allocations excluded; queue wait tail is p%.1f", len(lat), schedules, warm, used)
	if !cfg.trace {
		return out, nil
	}

	// The traced pass, part 1: the same job sequence with every job's
	// runners timed under a span for its request.
	rec = newRecorder()
	var traced []jobSample // the first keepResults jobs, Results kept
	var tracedLat []float64
	svc.closedLoop(cfg.window(), specs, func(spec *jobSpec) (openSpan, bool) {
		sp := rec.beginOp("serve.request")
		spec.Target += "#op=" + strconv.FormatInt(sp.id(), 10)
		return sp, true
	}, func(smp jobSample) {
		check(smp)
		tracedLat = append(tracedLat, float64(smp.latency)/1e6)
		if len(traced) < keepResults {
			traced = append(traced, smp)
		}
	})
	out.metrics["bench.trace_overhead_ratio"] = ratio(mean(tracedLat), mean(lat))

	// Part 2: the traced jobs again in process, with the strategy wrapped
	// and chains attached separately, each checked byte for byte against
	// the server's Result; then their schedules replayed through a timed
	// builder and analyzer.
	var lt layerTotals
	lt.rec = rec
	var wallNs, chainsNs, withMetricsNs, noMetricsNs float64
	var exSchedules, newGraphs, picks, replays, jobsInProcess int64
	inProcess := make(map[int64]bool) // operation ids of the in-process jobs
	budget := time.Now().Add(cfg.window() / 2)
	for _, smp := range traced {
		if time.Now().After(budget) && jobsInProcess > 0 {
			break
		}
		if smp.view.Result == nil {
			continue
		}
		spec := specs[smp.idx%len(specs)]
		c := caseBySpec[spec.Target]
		t, err := explore.TargetByName(spec.Target)
		if err != nil {
			return nil, err
		}
		strategy := func() explore.Strategy {
			s, _ := explore.StrategyFor(spec.Strategy, explore.StrategyParams{Seed: spec.Seed, POR: spec.POR})
			return s
		}
		kinds, err := explore.ParseKinds(spec.Kinds)
		if err != nil {
			return nil, err
		}
		opts := func(s explore.Strategy, metrics bool) []explore.Option {
			o := []explore.Option{explore.WithSeed(spec.Seed), explore.WithStrategy(s),
				explore.WithKinds(kinds...), explore.WithWorkers(spec.Workers)}
			if metrics {
				o = append(o, explore.WithRunMetrics())
			}
			return o
		}

		opSpan := rec.beginOp("job")
		op := opSpan.id()
		ex := rec.begin("explore.Run", op, op)
		probe := &runnerProbe{rec: rec, op: op, parent: ex.id()}
		ts, strat := wrapStrategy(strategy(), rec, op, ex.id())
		res, err := explore.Run(context.Background(), probe.wrap(t), opts(strat, true)...)
		exSpan := ex.end()
		if err != nil {
			out.unexpected = append(out.unexpected, fmt.Sprintf("%s: in-process exploration: %v", spec.Target, err))
			opSpan.end()
			continue
		}
		ch := rec.begin("provenance.AttachChains", op, op)
		explore.AttachChains(t, res, false)
		chainsNs += float64(ch.end().Dur())
		opSpan.end()
		witnesses := make(map[string]bool)
		for _, w := range res.Warnings {
			if w.Witness != "" {
				witnesses[w.Witness] = true
			}
		}
		replays += int64(len(witnesses))
		got, _ := json.Marshal(res)
		want, _ := json.Marshal(smp.view.Result)
		if !bytes.Equal(got, want) {
			out.unexpected = append(out.unexpected, fmt.Sprintf("%s: traced in-process Result differs from the server's", spec.Target))
		}
		jobsInProcess++
		inProcess[op] = true
		wallNs += float64(exSpan.Dur())
		exSchedules += int64(len(res.Runs))
		newGraphs += int64(res.NewGraphs)
		picks += ts.picks

		t0 := time.Now()
		explore.Run(context.Background(), t, opts(strategy(), true)...)
		withMetricsNs += float64(time.Since(t0))
		t0 = time.Now()
		explore.Run(context.Background(), t, opts(strategy(), false)...)
		noMetricsNs += float64(time.Since(t0))

		for _, rr := range res.Runs {
			lt.check(spec.Target, replayCase(c.c, c.fixed, rr.Token, &lt), rr)
		}
	}
	var inProcSpans []Span
	for _, sp := range rec.Spans() {
		if inProcess[sp.Op] {
			inProcSpans = append(inProcSpans, sp)
		}
	}
	exploreMetrics(out, inProcSpans, wallNs, exSchedules, newGraphs, picks)
	layerMetrics(out, &lt)
	out.metrics["acmeair.fixture_share"] = 0 // no case study loads the AcmeAir fixture
	out.metrics["provenance.chains_ms"] = ratio(chainsNs, float64(jobsInProcess)) / 1e6
	out.metrics["provenance.replays"] = ratio(float64(replays), float64(jobsInProcess))
	out.metrics["trace.metrics_overhead_ratio"] = ratio(withMetricsNs, noMetricsNs)
	out.spans = rec.Spans()
	out.notef("traced: %d jobs over HTTP, %d again in process, %d schedules replayed", len(tracedLat), jobsInProcess, lt.runs)
	return out, nil
}
