package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"asyncg/internal/asyncgraph"
	"asyncg/internal/casestudy"
	"asyncg/internal/explore"
	"asyncg/internal/vm"
)

// exploreJSON runs one exploration and returns its canonical JSON.
func exploreJSON(t *testing.T, tg explore.Target, s explore.Strategy, runs int) []byte {
	t.Helper()
	res, err := explore.Run(context.Background(), tg,
		explore.WithRuns(runs), explore.WithSeed(7), explore.WithStrategy(s),
		explore.WithKinds(explore.AllKinds()...), explore.WithWorkers(exploreWorkers),
		explore.WithRunMetrics())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTracingKeepsResultsByteIdentical runs the same explorations bare
// and with the traced pass's strategy and runner wrappers, covering a
// strategy with no optional interface (random), one with
// CoverageReporter (coverage) and one with both reporters (exhaustive).
func TestTracingKeepsResultsByteIdentical(t *testing.T) {
	targets := []struct {
		spec string
		runs int
	}{
		{"case:SO-17894000", 24},
		{"case:SO-33330277:fixed", 16},
		{"acmeair:requests=20,clients=3,seed=2", 6},
	}
	for _, tc := range targets {
		for _, name := range serveStrategies {
			params := explore.StrategyParams{Seed: 7, POR: name == explore.StrategyExhaustive}
			fresh := func() explore.Strategy {
				s, err := explore.StrategyFor(name, params)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			tg, err := explore.TargetByName(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			bare := exploreJSON(t, tg, fresh(), tc.runs)

			rec := newRecorder()
			probe := &runnerProbe{rec: rec, op: 1, parent: 1}
			ts, wrapped := wrapStrategy(fresh(), rec, 1, 1)
			traced := exploreJSON(t, probe.wrap(tg), wrapped, tc.runs)
			if !bytes.Equal(bare, traced) {
				t.Errorf("%s/%s: traced Result differs from the bare one", tc.spec, name)
			}
			if ts.observed == 0 || probe.warmed.Load() == 0 {
				t.Errorf("%s/%s: wrappers saw %d observations and %d runners", tc.spec, name, ts.observed, probe.warmed.Load())
			}
			tot := totalsByName(rec.Spans())
			if tot["explore.plan"].Calls == 0 || tot["explore.run"].Calls+tot["explore.run.warmup"].Calls == 0 {
				t.Errorf("%s/%s: no plan or run spans recorded: %v", tc.spec, name, tot)
			}
		}
	}
}

func TestWrapStrategyForwardsReporters(t *testing.T) {
	rec := newRecorder()
	for _, c := range []struct {
		s           explore.Strategy
		space, cov  bool
		description string
	}{
		{explore.NewRandom(1), false, false, "random"},
		{explore.NewCoverage(1), false, true, "coverage"},
		{explore.NewExhaustive(true), true, true, "exhaustive"},
	} {
		_, w := wrapStrategy(c.s, rec, 1, 1)
		_, space := w.(explore.SpaceReporter)
		_, cov := w.(explore.CoverageReporter)
		if space != c.space || cov != c.cov {
			t.Errorf("%s: wrapper reports space=%v coverage=%v, want %v %v", c.description, space, cov, c.space, c.cov)
		}
	}
}

// phaseOnly is a hook that subscribes to phase boundaries only.
type phaseOnly struct{ enters int }

func (*phaseOnly) FunctionEnter(*vm.Function, *vm.CallInfo)        {}
func (*phaseOnly) FunctionExit(*vm.Function, vm.Value, *vm.Thrown) {}
func (*phaseOnly) APICall(*vm.APIEvent)                            {}
func (p *phaseOnly) PhaseEnter(*vm.PhaseInfo)                      { p.enters++ }
func (*phaseOnly) PhaseExit(*vm.PhaseInfo)                         {}

func TestWrapHooksForwardsExtensions(t *testing.T) {
	_, bare := wrapHooks(asyncgraph.NewBuilder(asyncgraph.DefaultConfig()))
	if _, ok := bare.(vm.PhaseHooks); ok {
		t.Error("wrapped builder subscribes to phases the builder does not")
	}
	p := &phaseOnly{}
	th, h := wrapHooks(p)
	ph, ok := h.(vm.PhaseHooks)
	if !ok {
		t.Fatal("wrapped phase hook does not forward PhaseHooks")
	}
	ph.PhaseEnter(&vm.PhaseInfo{})
	if p.enters != 1 || th.calls != 1 {
		t.Errorf("forwarded %d phase entries, counted %d calls", p.enters, th.calls)
	}
	if lh, ok := h.(vm.LoopHooks); ok {
		lh.LoopIteration(&vm.LoopInfo{}) // absent in the tool: a no-op
	}
}

// TestReplaysReproduceRecordings replays every recorded schedule of an
// exploration through the benchmark's own pipeline and checks the
// fingerprint and warning keys against the recording.
func TestReplaysReproduceRecordings(t *testing.T) {
	for _, spec := range []string{"case:SO-17894000", "case:GH-npm-12754", "case:fig4:fixed", "case:SO-30515037"} {
		tg, err := explore.TargetByName(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := explore.Run(context.Background(), tg, explore.WithRuns(12),
			explore.WithStrategy(explore.NewRandom(3)), explore.WithKinds(explore.AllKinds()...))
		if err != nil {
			t.Fatal(err)
		}
		var c serveCase
		mix, excluded := serveCases()
		for _, sc := range append(mix, excluded...) {
			if sc.spec == spec {
				c = sc
			}
		}
		lt := layerTotals{rec: newRecorder()}
		for _, rr := range res.Runs {
			lt.check(spec, replayCase(c.c, c.fixed, rr.Token, &lt), rr)
		}
		if len(lt.mismatches) > 0 || lt.runs != int64(len(res.Runs)) || lt.builderEvents == 0 {
			t.Errorf("%s: %d of %d replays, %d builder events; mismatches %v", spec, lt.runs, len(res.Runs), lt.builderEvents, lt.mismatches)
		}
	}

	shape := acmeAirShape{requests: 20, clients: 3, seed: 1}
	at, err := listenLoc(shape)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exploreAcme(explore.AcmeAirTarget(shape.requests, shape.clients, shape.seed), 1, explore.NewCoverage(1), exploreWorkers)
	if err != nil {
		t.Fatal(err)
	}
	var lt layerTotals
	for _, rr := range res.Runs[:6] {
		lt.check("acmeair", replayAcmeAir(shape, at, rr.Token, &lt), rr)
	}
	if len(lt.mismatches) > 0 || lt.fixtureCalls != 6 {
		t.Errorf("acmeair: %d fixture loads; mismatches %v", lt.fixtureCalls, lt.mismatches)
	}
}

func TestTableIOracle(t *testing.T) {
	c, ok := casestudy.ByID("SO-17894000")
	if !ok {
		t.Fatal("case SO-17894000 missing")
	}
	buggy := serveCase{spec: "case:SO-17894000", c: c}
	fixed := serveCase{spec: "case:SO-17894000:fixed", c: c, fixed: true}
	seen := &explore.Result{Categories: []explore.CategoryStat{{Category: c.Expect[0], Outcome: explore.OutcomeSometimes}}}
	never := &explore.Result{Categories: []explore.CategoryStat{{Category: c.Expect[0], Outcome: explore.OutcomeNever}}}
	if bad := tableIOracle(buggy, seen); len(bad) != 0 {
		t.Errorf("buggy with the category observed: %v", bad)
	}
	if bad := tableIOracle(buggy, never); len(bad) != 1 {
		t.Errorf("buggy with the category never observed: %v", bad)
	}
	if bad := tableIOracle(fixed, never); len(bad) != 0 {
		t.Errorf("fixed with the category never observed: %v", bad)
	}
	if bad := tableIOracle(fixed, seen); len(bad) != 1 {
		t.Errorf("fixed with the category observed: %v", bad)
	}
}

// TestExcludedTargetsOutOfTheMix checks that the job mix leaves out
// exactly the excluded targets, and that set-up still explores them and
// notes each one's listed violation.
func TestExcludedTargetsOutOfTheMix(t *testing.T) {
	mix, excluded := serveCases()
	for _, c := range mix {
		if _, ok := excludedTargets[c.spec]; ok {
			t.Errorf("%s is excluded but in the job mix", c.spec)
		}
	}
	if len(excluded) != len(excludedTargets) {
		t.Fatalf("%d excluded targets found, %d listed", len(excluded), len(excludedTargets))
	}
	out := newOutcome()
	if err := checkExcluded(out, 1, excluded); err != nil {
		t.Fatal(err)
	}
	if len(out.unexpected) > 0 || out.attempted != 0 || out.failed != 0 {
		t.Errorf("checking the excluded targets counted operations or failures: %+v", out)
	}
	if want := len(excluded) * len(serveStrategies); len(out.notes) != want {
		t.Errorf("%d notes on the excluded targets, want %d: %v", len(out.notes), want, out.notes)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog the program
// prints and the one BENCHMARK.json declares in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(printed))
			return
		}
		for i, d := range declared {
			if d.Name != printed[i].name || d.Unit != printed[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), printed %s (%s)", kind, i, d.Name, d.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
	}
}
