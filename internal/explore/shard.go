package explore

import (
	"fmt"
	"math"
)

// This file is the sharding surface of the exploration engine: the
// exported description of one deterministic slice of a strategy's
// schedule space (ShardSpec, cut by a built-in strategy's Shard), the
// Strategy that executes exactly that slice (ShardStrategy), the
// decoding of a remote run back into strategy feedback (FeedbackOf),
// and the merge primitive (Finalize) that rebuilds a Result's aggregate
// sections after shard results have been stitched back into global run
// order. Together they let a fleet coordinator fan one exploration
// across many asyncg serve workers and still produce output
// byte-identical to a single-process Run at the same budget.

// ShardSpec describes one deterministic slice of an exploration: the
// shard's runs are the global run indices [Start, Start+Runs), planned
// exactly as the named full-exploration strategy would plan them. The
// strategy-specific payload makes the shard self-contained:
//
//   - random/delay need only the base Seed — run i derives its generator
//     from Seed+i, so any index range is independently computable.
//   - coverage additionally carries Corpus, the replay tokens of the
//     mutation corpus visible to the shard's generation (the schedules
//     that discovered a new fingerprint in generations before it).
//   - exhaustive carries Prefixes, the breadth-first forced pick
//     prefixes (as replay tokens) for each of the shard's runs; the
//     coordinator owns the frontier and expands it from run feedback.
type ShardSpec struct {
	// Strategy names the sharded walk (StrategyRandom, StrategyDelay,
	// StrategyCoverage, StrategyExhaustive).
	Strategy string `json:"strategy"`
	// Seed is the exploration's base seed (random, delay, coverage).
	Seed int64 `json:"seed,omitempty"`
	// Start is the global run index of the shard's first run.
	Start int `json:"start"`
	// Runs is the number of runs in the shard.
	Runs int `json:"runs"`
	// DelayBound caps non-default picks per run (delay; 0 means 2).
	DelayBound int `json:"delayBound,omitempty"`
	// Prefixes holds one forced pick prefix per run, as replay tokens
	// (exhaustive only; len(Prefixes) == Runs).
	Prefixes []string `json:"prefixes,omitempty"`
	// Corpus holds the mutation-corpus schedules visible to the shard's
	// generation, as replay tokens in discovery order (coverage only).
	Corpus []string `json:"corpus,omitempty"`
}

// Validate checks the spec's internal coherence: a known strategy, a
// positive in-range window, and a strategy payload that matches (and a
// coverage window that stays inside its generation).
func (s ShardSpec) Validate() error {
	if s.Runs <= 0 {
		return fmt.Errorf("explore: shard needs a positive run count, got %d", s.Runs)
	}
	if s.Start < 0 || s.Start > math.MaxInt-s.Runs {
		return fmt.Errorf("explore: shard start %d out of range", s.Start)
	}
	switch s.Strategy {
	case StrategyRandom, StrategyDelay:
		if len(s.Prefixes) != 0 || len(s.Corpus) != 0 {
			return fmt.Errorf("explore: %s shard carries no prefixes or corpus", s.Strategy)
		}
	case StrategyCoverage:
		if len(s.Prefixes) != 0 {
			return fmt.Errorf("explore: coverage shard carries no prefixes")
		}
		if s.Start/coverageGeneration != (s.Start+s.Runs-1)/coverageGeneration {
			return fmt.Errorf("explore: coverage shard [%d,%d) crosses a generation boundary (size %d)",
				s.Start, s.Start+s.Runs, coverageGeneration)
		}
	case StrategyExhaustive:
		if len(s.Prefixes) != s.Runs {
			return fmt.Errorf("explore: exhaustive shard has %d prefixes for %d runs", len(s.Prefixes), s.Runs)
		}
		if len(s.Corpus) != 0 {
			return fmt.Errorf("explore: exhaustive shard carries no corpus")
		}
	default:
		return fmt.Errorf("explore: unknown shard strategy %q", s.Strategy)
	}
	return nil
}

// ShardStrategy builds the Strategy that executes exactly the spec's
// slice of the global exploration: local run j is planned as global run
// Start+j would be under the full strategy, by that same strategy —
// random and delay from the base seed, coverage against the spec's
// frozen corpus, exhaustive from the spec's prefixes. The result is
// feedback-free: all cross-run feedback (coverage corpus growth,
// exhaustive frontier expansion, NewGraph flags) belongs to the
// coordinator that issued the shard, so a shard's runs are identical at
// any worker count and any shard decomposition.
func ShardStrategy(spec ShardSpec) (Strategy, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	w := &shardWindow{start: spec.Start, runs: spec.Runs}
	switch spec.Strategy {
	case StrategyRandom:
		w.Strategy = NewRandom(spec.Seed)
	case StrategyDelay:
		w.Strategy = NewDelay(spec.Seed, spec.DelayBound)
	case StrategyCoverage:
		corpus, err := parseTokens("corpus", spec.Corpus)
		if err != nil {
			return nil, err
		}
		cs := &coverageStrategy{seed: spec.Seed, frozen: true}
		for _, picks := range corpus {
			cs.entries = append(cs.entries, corpusEntry{picks: picks})
		}
		w.Strategy = cs
	default: // StrategyExhaustive; the queue holds just the shard's runs
		queue, err := parseTokens("prefix", spec.Prefixes)
		if err != nil {
			return nil, err
		}
		w.Strategy = &exhaustiveStrategy{frozen: true, queue: queue}
		w.start = 0
	}
	return w, nil
}

// shardWindow plans local run j as run start+j of the strategy it
// wraps, and ends after runs runs. Observe is passed on, re-indexed, so
// the random strategy recycles its generators; the other strategies a
// shard wraps are frozen or ignore feedback.
type shardWindow struct {
	Strategy
	start, runs int
}

func (w *shardWindow) Plan(j int) (PickFunc, PlanState) {
	if j >= w.runs {
		return nil, PlanDone
	}
	return w.Strategy.Plan(w.start + j)
}

func (w *shardWindow) Observe(fb Feedback) {
	fb.Index += w.start
	w.Strategy.Observe(fb)
}

// parseTokens decodes a spec's replay-token list.
func parseTokens(what string, toks []string) ([][]int, error) {
	out := make([][]int, len(toks))
	for k, tok := range toks {
		sched, err := ParseToken(tok)
		if err != nil {
			return nil, fmt.Errorf("explore: shard %s: %v", what, err)
		}
		out[k] = sched.Picks
	}
	return out, nil
}

// FeedbackOf decodes a run that executed elsewhere — a shard worker's
// run line — into the Feedback its strategy observes: Picks is the
// replay token's pick sequence, padded with default picks to the length
// of the recorded Domains. It rejects a run whose token does not parse,
// whose Independent flags do not match its Domains, or, when Domains
// were recorded, whose picks run past them or exceed a domain.
func FeedbackOf(rr RunResult) (Feedback, error) {
	sched, err := ParseToken(rr.Token)
	if err != nil {
		return Feedback{}, err
	}
	if len(rr.Independent) != len(rr.Domains) {
		return Feedback{}, fmt.Errorf("explore: run %d records %d independence flags for %d domains",
			rr.Index, len(rr.Independent), len(rr.Domains))
	}
	picks := sched.Picks
	if len(rr.Domains) > 0 {
		if len(picks) > len(rr.Domains) {
			return Feedback{}, fmt.Errorf("explore: run %d has %d picks for %d domains", rr.Index, len(picks), len(rr.Domains))
		}
		for pos, p := range picks {
			if p >= rr.Domains[pos] {
				return Feedback{}, fmt.Errorf("explore: run %d picks %d at position %d, outside its domain of %d",
					rr.Index, p, pos, rr.Domains[pos])
			}
		}
		picks = make([]int, len(rr.Domains))
		copy(picks, sched.Picks)
	}
	return newFeedback(rr, picks, rr.Domains, rr.Independent), nil
}

// Finalize re-derives a Result's aggregate sections — the fingerprint
// census, the warning and category classification, and NewGraphs — from
// its Runs, replacing whatever was there. It is the merge primitive of
// the fleet coordinator: after shard results are stitched back into
// global run order (indices rewritten, NewGraph flags recomputed against
// the global fingerprint set), Finalize rebuilds exactly the aggregates
// a single-process Run would have produced, because aggregation is a
// pure function of the ordered run records and the target's Expect set.
func Finalize(t Target, res *Result) {
	res.Fingerprints, res.Warnings, res.Categories = nil, nil, nil
	aggregate(t, res)
	res.NewGraphs = len(res.Fingerprints)
}
