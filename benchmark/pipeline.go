package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"asyncg"
	"asyncg/internal/acmeair"
	"asyncg/internal/asyncgraph"
	"asyncg/internal/casestudy"
	"asyncg/internal/detect"
	"asyncg/internal/eventloop"
	"asyncg/internal/explore"
	"asyncg/internal/loc"
	"asyncg/internal/mongosim"
	"asyncg/internal/netio"
	"asyncg/internal/workload"
)

// The explore targets build their graph builder and analyzer inside
// runners the benchmark cannot reach. To time those layers the traced
// pass replays recorded schedule tokens through a pipeline it assembles
// from the same public constructors, with its own timed builder and
// analyzer attached, and checks that each replay reproduces the
// recorded fingerprint and warning keys.

// layerTotals accumulates per-layer work over a set of runs.
type layerTotals struct {
	runs int64

	fixtureCalls, fixtureNs, fixtureAllocs int64
	requestsFailed                         int64

	loopNs                   int64 // the run call (Session.Run or Loop.Run)
	builderNs, builderEvents int64
	detectNs, detectEvents   int64
	ticks                    int64
	nodes, edges, warnings   int64

	fingerprintNs, fingerprintAllocs int64
	finishNs, finishAllocs           int64

	mismatches []string // replays that did not reproduce their recording

	// rec, when set, receives one span tree per run: the run's root, the
	// fixture load, the loop run with the tool's hook time folded into
	// aggregate children, and the post-hoc detectors and fingerprint.
	rec  *Recorder
	root openSpan
}

// beginRun opens a run's root span.
func (lt *layerTotals) beginRun(name string) {
	if lt.rec != nil {
		lt.root = lt.rec.beginOp(name)
	}
}

// endRun closes the root span.
func (lt *layerTotals) endRun() {
	if lt.rec != nil {
		lt.root.end()
	}
}

// span records a finished child of the current run's root and returns
// its id.
func (lt *layerTotals) span(name string, start time.Time, d time.Duration) int64 {
	if lt.rec == nil {
		return 0
	}
	id := lt.rec.newID()
	s := int64(start.Sub(lt.rec.base))
	lt.rec.add(Span{ID: id, Parent: lt.root.id(), Op: lt.root.id(), Name: name, Start: s, End: s + int64(d)})
	return id
}

// loopRun records the loop run's span and the tool's hook time inside it.
func (lt *layerTotals) loopRun(t *tool, start time.Time, d time.Duration) {
	lt.loopNs += int64(d)
	id := lt.span("eventloop.run", start, d)
	if lt.rec == nil || t == nil {
		return
	}
	s := int64(start.Sub(lt.rec.base))
	for _, h := range []struct {
		name string
		th   *timedHooks
	}{{"asyncgraph.hooks", t.bt}, {"detect.hooks", t.at}} {
		lt.rec.add(Span{ID: lt.rec.newID(), Parent: id, Op: lt.root.id(), Name: h.name,
			Start: s, End: s + int64(d), Busy: int64(h.th.busy), Count: max(h.th.calls, 1)})
	}
}

// allocCount is the process's cumulative heap allocation count.
func allocCount() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs)
}

// toolRun is one replayed run's verdict.
type toolRun struct {
	fingerprint string
	warnings    []string // sorted, deduplicated warning keys
	err         error
}

// warnKeys renders warnings the way the engine keys them.
func warnKeys(ws []asyncgraph.Warning) []string {
	seen := make(map[string]bool, len(ws))
	var out []string
	for _, w := range ws {
		k := fmt.Sprintf("%s @ %s", w.Category, w.Loc)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// tool is the Async Graph builder and analyzer as a session attaches
// them, each behind a timing wrapper.
type tool struct {
	builder  *asyncgraph.Builder
	analyzer *detect.Analyzer
	bt, at   *timedHooks
}

func attachTool(l *eventloop.Loop) *tool {
	b := asyncgraph.NewBuilder(asyncgraph.DefaultConfig())
	a := detect.NewAnalyzer(b, detect.DefaultConfig())
	bt, bh := wrapHooks(b)
	at, ah := wrapHooks(a)
	// Order matters, as in asyncg.New: the builder sees each event first.
	l.Probes().Attach(bh)
	l.Probes().Attach(ah)
	return &tool{builder: b, analyzer: a, bt: bt, at: at}
}

// finish runs the post-hoc detectors and the fingerprint, timing each,
// and folds the run's counters into lt.
func (t *tool) finish(lt *layerTotals, ticks int, manual func(*asyncg.Report) []asyncgraph.Warning) toolRun {
	a0 := allocCount()
	t0 := time.Now()
	ws := t.analyzer.Finish()
	g := t.builder.Graph()
	if manual != nil {
		ws = append(ws, manual(&asyncg.Report{Graph: g, Warnings: ws})...)
	}
	d0 := time.Since(t0)
	a1 := allocCount()
	lt.finishNs += int64(d0)
	lt.finishAllocs += a1 - a0
	lt.span("detect.finish", t0, d0)
	t1 := time.Now()
	fp := g.Fingerprint()
	d1 := time.Since(t1)
	lt.fingerprintNs += int64(d1)
	lt.fingerprintAllocs += allocCount() - a1
	lt.span("asyncgraph.fingerprint", t1, d1)

	lt.runs++
	lt.builderNs += int64(t.bt.busy)
	lt.builderEvents += t.bt.calls
	lt.detectNs += int64(t.at.busy)
	lt.detectEvents += t.at.calls
	lt.ticks += int64(ticks)
	lt.nodes += int64(len(g.Nodes))
	lt.edges += int64(len(g.Edges))
	lt.warnings += int64(len(ws))
	return toolRun{fingerprint: fp, warnings: warnKeys(ws)}
}

// replayCase replays one schedule of a case study through a session
// built with the tool disabled, the timed tool attached by hand.
func replayCase(c casestudy.Case, fixed bool, token string, lt *layerTotals) toolRun {
	sched, err := explore.ParseToken(token)
	if err != nil {
		return toolRun{err: err}
	}
	program, manual := c.Buggy, c.Manual
	if fixed {
		program, manual = c.Fixed, nil
	}
	limit := c.TickLimit
	if limit == 0 {
		limit = 500 // the case-study default (casestudy.SessionFor)
	}
	s := asyncg.New(asyncg.Disabled(),
		asyncg.WithLoop(eventloop.Options{TickLimit: limit}),
		asyncg.WithScheduler(&playback{picks: sched.Picks}))
	lt.beginRun("replay")
	defer lt.endRun()
	t := attachTool(s.Loop())
	t0 := time.Now()
	report, _ := s.Run(program) // a tick-limit stop is a recorded outcome
	lt.loopRun(t, t0, time.Since(t0))
	return t.finish(lt, report.Ticks, manual)
}

// acmeAirShape is one AcmeAir explore target's load.
type acmeAirShape struct {
	requests, clients int
	seed              int64
}

// listenLoc finds the source location the AcmeAir explore target passes
// to App.Listen: the router's registration carries it, and graph labels
// (hence fingerprints) depend on it.
func listenLoc(shape acmeAirShape) (loc.Loc, error) {
	t := explore.AcmeAirTarget(shape.requests, shape.clients, shape.seed)
	_, report, err := explore.Replay(t, "s1.")
	if err != nil {
		return loc.Loc{}, err
	}
	if report == nil || report.Graph == nil {
		return loc.Loc{}, fmt.Errorf("acmeair replay produced no graph")
	}
	for _, n := range report.Graph.Nodes {
		if n.Func == "acmeairRouter" && !n.Loc.IsInternal() {
			return n.Loc, nil
		}
	}
	return loc.Loc{}, fmt.Errorf("acmeair graph has no acmeairRouter node")
}

// replayAcmeAir replays one schedule of the AcmeAir explore target,
// assembling the runtime the target's runner builds: session, network,
// database, sample data, application and workload driver.
func replayAcmeAir(shape acmeAirShape, at loc.Loc, token string, lt *layerTotals) toolRun {
	sched, err := explore.ParseToken(token)
	if err != nil {
		return toolRun{err: err}
	}
	s := asyncg.New(asyncg.Disabled(),
		asyncg.WithLoop(eventloop.Options{TickLimit: 100_000_000}),
		asyncg.WithScheduler(&playback{picks: sched.Picks}))
	lt.beginRun("replay")
	defer lt.endRun()
	l := s.Loop()
	t := attachTool(l)
	nw := netio.New(l, netio.Options{})
	db := mongosim.New(l, mongosim.Options{})
	loadFixture(db, lt)
	app := acmeair.New(l, nw, db, acmeair.Config{UsePromises: true})
	driver := workload.NewDriver(nw, workload.Options{
		Port: app.Port(), Clients: shape.clients, Requests: shape.requests, Seed: shape.seed,
	})
	var listenErr error
	t0 := time.Now()
	report, _ := s.Run(func(*asyncg.Context) {
		if listenErr = app.Listen(at); listenErr == nil {
			driver.Start()
		}
	})
	lt.loopRun(t, t0, time.Since(t0))
	if listenErr != nil {
		return toolRun{err: listenErr}
	}
	lt.requestsFailed += int64(driver.Stats().Failed)
	return t.finish(lt, report.Ticks, nil)
}

// loadFixture loads the AcmeAir sample data, timing the call and
// counting its allocations.
func loadFixture(db *mongosim.DB, lt *layerTotals) {
	a0 := allocCount()
	t0 := time.Now()
	acmeair.LoadSampleData(db, acmeair.DefaultDataSpec())
	d := time.Since(t0)
	lt.fixtureNs += int64(d)
	lt.fixtureAllocs += allocCount() - a0
	lt.fixtureCalls++
	lt.span("acmeair.LoadSampleData", t0, d)
}

// check compares a replay against the run it replays and records a
// mismatch.
func (lt *layerTotals) check(label string, got toolRun, want explore.RunResult) {
	switch {
	case got.err != nil:
		lt.mismatches = append(lt.mismatches, fmt.Sprintf("%s %s: %v", label, want.Token, got.err))
	case got.fingerprint != want.Fingerprint:
		lt.mismatches = append(lt.mismatches, fmt.Sprintf("%s %s: fingerprint %s, recorded %s", label, want.Token, got.fingerprint, want.Fingerprint))
	case !slices.Equal(got.warnings, want.Warnings):
		lt.mismatches = append(lt.mismatches, fmt.Sprintf("%s %s: warnings %v, recorded %v", label, want.Token, got.warnings, want.Warnings))
	}
}
