package main

import (
	"sync/atomic"
	"time"

	"asyncg"
	"asyncg/internal/eventloop"
	"asyncg/internal/explore"
	"asyncg/internal/vm"
)

// This file holds the wrappers the traced pass puts around each layer's
// public entry points. A wrapper only times and counts: it forwards every
// call unchanged, including the optional interfaces the engine and the
// loop discover by type assertion, so tracing cannot change an output.

// timedStrategy times Plan and Observe of the strategy handed to
// explore.WithStrategy. Both run on the exploration's coordinator
// goroutine, so the counters need no locking.
type timedStrategy struct {
	inner      explore.Strategy
	rec        *Recorder
	op, parent int64

	picks    int64 // Σ len(Feedback.Picks) over observed runs
	observed int64
}

func (s *timedStrategy) Name() string { return s.inner.Name() }

func (s *timedStrategy) Plan(i int) (explore.PickFunc, explore.PlanState) {
	sp := s.rec.begin("explore.plan", s.op, s.parent)
	next, state := s.inner.Plan(i)
	sp.end()
	return next, state
}

func (s *timedStrategy) Observe(fb explore.Feedback) {
	sp := s.rec.begin("explore.observe", s.op, s.parent)
	s.inner.Observe(fb)
	sp.end()
	s.picks += int64(len(fb.Picks))
	s.observed++
}

// The engine asks a strategy for SpaceReporter and CoverageReporter by
// type assertion; one wrapper type per combination keeps the answer the
// same as for the bare strategy.
type timedSpace struct {
	*timedStrategy
	sr explore.SpaceReporter
}

func (s timedSpace) Exhausted() bool { return s.sr.Exhausted() }

type timedCoverage struct {
	*timedStrategy
	cr explore.CoverageReporter
}

func (s timedCoverage) CoverageStats() explore.CoverageStats { return s.cr.CoverageStats() }

type timedSpaceCoverage struct {
	*timedStrategy
	sr explore.SpaceReporter
	cr explore.CoverageReporter
}

func (s timedSpaceCoverage) Exhausted() bool                      { return s.sr.Exhausted() }
func (s timedSpaceCoverage) CoverageStats() explore.CoverageStats { return s.cr.CoverageStats() }

// wrapStrategy returns the timed strategy (for its counters) and the
// value to pass to explore.WithStrategy.
func wrapStrategy(inner explore.Strategy, rec *Recorder, op, parent int64) (*timedStrategy, explore.Strategy) {
	t := &timedStrategy{inner: inner, rec: rec, op: op, parent: parent}
	sr, space := inner.(explore.SpaceReporter)
	cr, cov := inner.(explore.CoverageReporter)
	switch {
	case space && cov:
		return t, timedSpaceCoverage{t, sr, cr}
	case space:
		return t, timedSpace{t, sr}
	case cov:
		return t, timedCoverage{t, cr}
	default:
		return t, t
	}
}

// runnerProbe observes the runners an exploration builds through
// Target.NewRunner. Untraced it only counts the runners that ran at least
// once (each paid a warm-up); with a recorder it also records a span per
// Run and Reset. Runners live on the engine's worker goroutines, hence
// the atomics.
type runnerProbe struct {
	rec        *Recorder
	op, parent int64

	warmed atomic.Int64 // runners whose first Run has started
}

// wrap returns t with its NewRunner wrapped; Name, Expect and the
// one-shot Run (used by replays and chains) are untouched.
func (p *runnerProbe) wrap(t explore.Target) explore.Target {
	inner := t.NewRunner
	t.NewRunner = func() explore.Runner { return &timedRunner{inner: inner(), probe: p} }
	return t
}

type timedRunner struct {
	inner explore.Runner
	probe *runnerProbe
	ran   bool
}

func (r *timedRunner) Run(extra ...asyncg.Option) (*asyncg.Report, error) {
	name := "explore.run"
	if !r.ran {
		r.ran = true
		r.probe.warmed.Add(1)
		name = "explore.run.warmup"
	}
	if r.probe.rec == nil {
		return r.inner.Run(extra...)
	}
	sp := r.probe.rec.begin(name, r.probe.op, r.probe.parent)
	defer sp.end()
	return r.inner.Run(extra...)
}

func (r *timedRunner) Reset() {
	if r.probe.rec == nil {
		r.inner.Reset()
		return
	}
	sp := r.probe.rec.begin("explore.reset", r.probe.op, r.probe.parent)
	r.inner.Reset()
	sp.end()
}

// timedHooks times every probe hook call into one tool (the graph
// builder or the analyzer). The loop calls hooks on its own goroutine,
// one at a time.
type timedHooks struct {
	inner vm.Hooks
	busy  time.Duration
	calls int64
}

func (h *timedHooks) FunctionEnter(fn *vm.Function, info *vm.CallInfo) {
	t := time.Now()
	h.inner.FunctionEnter(fn, info)
	h.busy += time.Since(t)
	h.calls++
}

func (h *timedHooks) FunctionExit(fn *vm.Function, ret vm.Value, thrown *vm.Thrown) {
	t := time.Now()
	h.inner.FunctionExit(fn, ret, thrown)
	h.busy += time.Since(t)
	h.calls++
}

func (h *timedHooks) APICall(ev *vm.APIEvent) {
	t := time.Now()
	h.inner.APICall(ev)
	h.busy += time.Since(t)
	h.calls++
}

// timedHooksExt also forwards the optional phase, loop and timer probe
// extensions. It is used only for tools that implement at least one of
// them, so attaching a wrapped tool subscribes the loop to exactly the
// events the bare tool would.
type timedHooksExt struct {
	*timedHooks
	phase vm.PhaseHooks
	loop  vm.LoopHooks
	timer vm.TimerHooks
}

func (h timedHooksExt) PhaseEnter(info *vm.PhaseInfo) {
	if h.phase != nil {
		t := time.Now()
		h.phase.PhaseEnter(info)
		h.busy += time.Since(t)
		h.calls++
	}
}

func (h timedHooksExt) PhaseExit(info *vm.PhaseInfo) {
	if h.phase != nil {
		t := time.Now()
		h.phase.PhaseExit(info)
		h.busy += time.Since(t)
		h.calls++
	}
}

func (h timedHooksExt) LoopIteration(info *vm.LoopInfo) {
	if h.loop != nil {
		t := time.Now()
		h.loop.LoopIteration(info)
		h.busy += time.Since(t)
		h.calls++
	}
}

func (h timedHooksExt) TimerFired(info *vm.TimerFire) {
	if h.timer != nil {
		t := time.Now()
		h.timer.TimerFired(info)
		h.busy += time.Since(t)
		h.calls++
	}
}

// wrapHooks returns the counters and the hook value to attach.
func wrapHooks(inner vm.Hooks) (*timedHooks, vm.Hooks) {
	t := &timedHooks{inner: inner}
	ph, _ := inner.(vm.PhaseHooks)
	lh, _ := inner.(vm.LoopHooks)
	th, _ := inner.(vm.TimerHooks)
	if ph == nil && lh == nil && th == nil {
		return t, t
	}
	return t, timedHooksExt{timedHooks: t, phase: ph, loop: lh, timer: th}
}

// playback is the scheduler of a replay: it answers the i-th choice
// point with the token's i-th pick and 0 past its end, exactly as the
// engine's own replay does. It accepts independence announcements (and
// ignores them) like the engine's scheduler, so the loop takes the same
// path either way.
type playback struct {
	picks []int
	pos   int
}

func (p *playback) Choose(_ eventloop.ChoiceKind, n int) int {
	pick := 0
	if p.pos < len(p.picks) {
		pick = p.picks[p.pos]
	}
	p.pos++
	if pick >= n {
		pick = 0
	}
	return pick
}

func (p *playback) BeginPermute(eventloop.ChoiceKind, []uint64) {}
