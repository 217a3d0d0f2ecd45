package explore

import (
	"context"

	"asyncg/internal/trace"
)

// This file implements the engine's single coordinator: one loop drives
// every strategy at every worker count.
//
// Every run is an isolated single-threaded simulation, and nothing
// about a run's RunResult depends on cross-run state. That makes the
// schedule space embarrassingly parallel — the coordinator's work is
// asking the strategy what to run next, handing the job to a pool
// worker, and reassembling results in run-index order so the aggregate
// Result is byte-identical to a sequential exploration.
//
// Workers are persistent: each pool goroutine owns one Runner (from
// Target.NewRunner) for the whole exploration and Resets it between
// jobs, so the session's allocation set — event loop queues, graph
// nodes, detector state, emitter and promise pools — is paid for once
// per worker, not once per schedule. The Reset contract (asyncg.Session.Reset) makes a
// reused runtime observationally identical to a fresh one, which is
// what keeps the worker-count and runner-reuse invariants equivalent:
// the Result is byte-identical at any worker count, whether a runner
// serves one schedule or thousands.
//
// The feedback loop is the part that must not race: strategies plan
// from what they have observed (the exhaustive frontier grows out of
// completed runs; the coverage corpus accumulates new-fingerprint
// schedules). Observe is therefore called strictly in run-index order,
// from the same in-order drain that emits results — a run completing
// early never reaches the strategy before its predecessors. When a
// strategy needs feedback that is still in flight it answers PlanWait,
// and the coordinator holds planning until the next completion lands —
// the sliding window that reproduces the sequential schedule exactly,
// whatever the completion interleaving.
//
// Choosers are pooled on the coordinator goroutine: a recording is
// handed out at dispatch and recycled after its feedback has been
// consumed (Observe called, WithRunFeedback copies taken), never
// earlier — out-of-order completions park in pending with their
// recordings intact. The pool is capped at 2×Workers: in flight plus
// parked is bounded by that, so a larger pool could never be touched.
//
// Cancellation discipline: the context is polled before every dispatch
// and at every result receipt; once it fires, no new work is
// dispatched, in-flight runs stop at their next tick boundary (the
// loop-level interrupt), and the coordinator drains every worker before
// returning — cancellation never abandons a goroutine. Runs delivered
// after the cancel observation are discarded as possibly truncated, so
// the partial Result covers only complete runs.
//
// Panic discipline: a panicking target is recovered inside runOnce (so
// it can never kill a worker goroutine) and arrives at the coordinator
// as doneRun.err. The first such error cancels the coordinator's
// internal context — stopping dispatch and interrupting in-flight runs
// exactly like an external cancel — and is returned after the pool
// drains, so a panic fails the exploration, not the process. A worker
// whose runner panicked replaces it with a fresh one before taking the
// next job: the old runtime's state is unknowable mid-panic, and the
// exploration is ending anyway.

// job is one schedule dispatched to a pool worker.
type job struct {
	idx int
	ch  *chooser
}

// doneRun carries one finished schedule back to the coordinator; ch
// holds the recording (picks, domains, independence flags) that becomes
// the strategy's feedback.
type doneRun struct {
	idx  int
	rr   RunResult
	snap *trace.Snapshot
	ch   *chooser
	err  error // a recovered target panic; fatal to the exploration
}

// runCoordinator executes the exploration: plan → dispatch → observe →
// emit, with up to cfg.Workers runs in flight on persistent workers.
func runCoordinator(ctx context.Context, t Target, cfg config, res *Result) error {
	// The internal cancel lets a panicking run stop the exploration the
	// same way an external cancel does (halt dispatch, interrupt
	// in-flight runs at their next tick boundary, drain the pool).
	ctx, stop := context.WithCancel(ctx)
	defer stop()

	jobs := make(chan job)
	done := make(chan doneRun)
	defer close(jobs)
	for w := 0; w < cfg.Workers; w++ {
		go func() {
			runner := t.NewRunner()
			in := newIntern()
			proxy := &schedProxy{}
			extras := workerExtras(ctx, proxy, &cfg)
			for j := range jobs {
				runner.Reset() // no-op on a cold runner
				proxy.ch = j.ch
				rr, snap, err := runOnce(ctx, runner.Run, j.idx, j.ch, extras, &cfg, in)
				if err != nil {
					// The runtime is mid-panic state; start over.
					runner = t.NewRunner()
				}
				done <- doneRun{idx: j.idx, rr: rr, snap: snap, ch: j.ch, err: err}
			}
		}()
	}

	var chooserPool []*chooser
	takeChooser := func(next PickFunc) *chooser {
		if n := len(chooserPool); n > 0 {
			ch := chooserPool[n-1]
			chooserPool = chooserPool[:n-1]
			ch.reset(next)
			return ch
		}
		return newChooser(cfg.Kinds, next)
	}
	putChooser := func(ch *chooser) {
		if len(chooserPool) < 2*cfg.Workers {
			chooserPool = append(chooserPool, ch)
		}
	}

	pending := make(map[int]doneRun)
	seen := make(map[string]bool) // fingerprints, in run-index order
	inFlight := 0
	nextPlan, nextEmit := 0, 0
	planDone := false
	var panicErr error

	for {
		for !planDone && panicErr == nil && ctx.Err() == nil &&
			inFlight < cfg.Workers && nextPlan < cfg.Runs {
			next, state := cfg.Strategy.Plan(nextPlan)
			if state == PlanWait {
				// With nothing in flight a waiting strategy can never
				// unblock; treat it as done rather than livelock. A
				// correct strategy only waits on in-flight feedback.
				if inFlight == 0 {
					planDone = true
				}
				break
			}
			if state == PlanDone {
				planDone = true
				break
			}
			idx := nextPlan
			nextPlan++
			inFlight++
			// inFlight < Workers guaranteed an idle worker; the send
			// blocks at most until it loops back to the jobs receive.
			jobs <- job{idx: idx, ch: takeChooser(next)}
		}
		if inFlight == 0 {
			break
		}
		d := <-done
		inFlight--
		if d.err != nil && panicErr == nil {
			panicErr = d.err
			stop()
		}
		if panicErr != nil || ctx.Err() != nil {
			continue // drain in-flight runs; they stop at a tick boundary
		}
		pending[d.idx] = d
		for {
			nd, ok := pending[nextEmit]
			if !ok {
				break
			}
			delete(pending, nextEmit)
			nextEmit++
			rr := nd.rr
			if !seen[rr.Fingerprint] {
				seen[rr.Fingerprint] = true
				rr.NewGraph = true
			}
			rr.NewGraphs = len(seen)
			if cfg.Feedback {
				rr.Domains = append([]int(nil), nd.ch.domains...)
				rr.Independent = append([]bool(nil), nd.ch.indep...)
			}
			cfg.Strategy.Observe(newFeedback(rr, nd.ch.picks, nd.ch.domains, nd.ch.indep))
			putChooser(nd.ch)
			if cr, ok := cfg.Strategy.(CoverageReporter); ok {
				stats := cr.CoverageStats()
				rr.CorpusSize = stats.CorpusSize
				rr.PrunedPicks = stats.PrunedPicks
			}
			emitRun(res, &cfg, rr, nd.snap)
		}
	}
	if panicErr != nil {
		return panicErr
	}
	return ctx.Err()
}
