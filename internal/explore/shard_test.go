package explore

import (
	"strings"
	"testing"

	"asyncg/internal/eventloop"
)

// shardWindows cuts [0, total) into consecutive windows of size at most
// width.
func shardWindows(total, width int) [][2]int {
	var out [][2]int
	for start := 0; start < total; start += width {
		n := width
		if start+n > total {
			n = total - start
		}
		out = append(out, [2]int{start, n})
	}
	return out
}

// runShard executes one ShardSpec against tg and returns the shard's
// runs (locally indexed 0..spec.Runs-1).
func runShard(t *testing.T, tg Target, spec ShardSpec, kinds []eventloop.ChoiceKind) []RunResult {
	t.Helper()
	strat, err := ShardStrategy(spec)
	if err != nil {
		t.Fatalf("ShardStrategy(%+v): %v", spec, err)
	}
	opts := []Option{WithStrategy(strat), WithRuns(spec.Runs), WithWorkers(2)}
	if kinds != nil {
		opts = append(opts, WithKinds(kinds...))
	}
	return mustRun(t, tg, opts...).Runs
}

// checkShardRun compares a shard-local run against the full
// exploration's run at the same global index: the schedule itself
// (token) and everything derived from a single execution must match;
// cross-run aggregates (NewGraph, NewGraphs, CorpusSize, PrunedPicks)
// are the coordinator's job and intentionally differ.
func checkShardRun(t *testing.T, global int, want, got RunResult) {
	t.Helper()
	if got.Token != want.Token {
		t.Errorf("run %d: token = %q, want %q", global, got.Token, want.Token)
	}
	if got.Fingerprint != want.Fingerprint {
		t.Errorf("run %d: fingerprint = %q, want %q", global, got.Fingerprint, want.Fingerprint)
	}
	if got.Ticks != want.Ticks || got.Err != want.Err {
		t.Errorf("run %d: ticks/err = %d/%q, want %d/%q", global, got.Ticks, got.Err, want.Ticks, want.Err)
	}
	if strings.Join(got.Warnings, "|") != strings.Join(want.Warnings, "|") {
		t.Errorf("run %d: warnings = %v, want %v", global, got.Warnings, want.Warnings)
	}
}

// TestShardStrategySeeded: for the strategies whose run i depends only
// on seed+i (random, delay), any [Start, Start+Runs) window planned
// through ShardStrategy reproduces exactly the full exploration's runs
// at those global indices — the invariant that makes seed-range
// sharding across a fleet sound.
func TestShardStrategySeeded(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	const total = 16
	cases := []struct {
		name string
		full []Option
		spec func(start, n int) ShardSpec
	}{
		{
			"random", []Option{WithSeed(3), WithRuns(total)},
			func(start, n int) ShardSpec {
				return ShardSpec{Strategy: StrategyRandom, Seed: 3, Start: start, Runs: n}
			},
		},
		{
			"delay", []Option{WithStrategy(NewDelay(7, 2)), WithRuns(total)},
			func(start, n int) ShardSpec {
				return ShardSpec{Strategy: StrategyDelay, Seed: 7, Start: start, Runs: n, DelayBound: 2}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full := mustRun(t, tg, tc.full...)
			for _, width := range []int{1, 5, total} {
				for _, w := range shardWindows(total, width) {
					runs := runShard(t, tg, tc.spec(w[0], w[1]), nil)
					for j, got := range runs {
						checkShardRun(t, w[0]+j, full.Runs[w[0]+j], got)
					}
				}
			}
		})
	}
}

// TestShardStrategyCoverage: a coverage generation's runs depend on the
// corpus snapshot from earlier generations. Reconstructing that snapshot
// from the full exploration's NewGraph tokens and freezing it into a
// ShardSpec must reproduce each generation's runs exactly — including
// that replay tokens (trailing zeros trimmed) are a faithful corpus wire
// format, because mutation treats positions past the seed's end as the
// default pick anyway.
func TestShardStrategyCoverage(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	const total = 40
	full := mustRun(t, tg, WithStrategy(NewCoverage(11)), WithRuns(total))
	for _, width := range []int{3, coverageGeneration} {
		// Windows are cut inside each generation — a shard must never
		// straddle the corpus-snapshot boundary.
		for gen := 0; gen*coverageGeneration < total; gen++ {
			var corpus []string
			for _, rr := range full.Runs[:gen*coverageGeneration] {
				if rr.NewGraph {
					corpus = append(corpus, rr.Token)
				}
			}
			genRuns := coverageGeneration
			if rest := total - gen*coverageGeneration; rest < genRuns {
				genRuns = rest
			}
			for _, w := range shardWindows(genRuns, width) {
				start := gen*coverageGeneration + w[0]
				spec := ShardSpec{Strategy: StrategyCoverage, Seed: 11, Start: start, Runs: w[1], Corpus: corpus}
				runs := runShard(t, tg, spec, nil)
				for j, got := range runs {
					checkShardRun(t, start+j, full.Runs[start+j], got)
				}
			}
		}
	}
}

// TestShardStrategyExhaustive: an exhaustive run's forced prefix ends in
// its last non-zero pick, and playback pads with defaults — so a run's
// replay token IS its canonical prefix, and a prefix-range shard fed the
// full exploration's tokens reproduces those runs exactly.
func TestShardStrategyExhaustive(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	kinds := []eventloop.ChoiceKind{eventloop.ChoiceIOOrder, eventloop.ChoiceLatency}
	full := mustRun(t, tg, WithStrategy(NewExhaustive(false)), WithRuns(60), WithKinds(kinds...))
	if !full.Exhausted {
		t.Fatal("60-run budget should exhaust the reduced-kind space")
	}
	total := len(full.Runs)
	for _, w := range shardWindows(total, 7) {
		var prefixes []string
		for _, rr := range full.Runs[w[0] : w[0]+w[1]] {
			prefixes = append(prefixes, rr.Token)
		}
		spec := ShardSpec{Strategy: StrategyExhaustive, Start: w[0], Runs: w[1], Prefixes: prefixes}
		runs := runShard(t, tg, spec, kinds)
		for j, got := range runs {
			checkShardRun(t, w[0]+j, full.Runs[w[0]+j], got)
		}
	}
}

// TestWithRunFeedback: the option populates Domains and Independent on
// every run (the fleet coordinator's frontier-expansion input), the
// default leaves them empty, and the recorded domains are consistent
// with the replay token's pick positions.
func TestWithRunFeedback(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	plain := mustRun(t, tg, WithRuns(4), WithSeed(3))
	for _, rr := range plain.Runs {
		if rr.Domains != nil || rr.Independent != nil {
			t.Fatalf("run %d: feedback fields populated without WithRunFeedback", rr.Index)
		}
	}
	fb := mustRun(t, tg, WithRuns(4), WithSeed(3), WithRunFeedback())
	for i, rr := range fb.Runs {
		if len(rr.Domains) == 0 || len(rr.Domains) != len(rr.Independent) {
			t.Fatalf("run %d: domains/independent = %d/%d entries", i, len(rr.Domains), len(rr.Independent))
		}
		sched, err := ParseToken(rr.Token)
		if err != nil {
			t.Fatal(err)
		}
		if len(sched.Picks) > len(rr.Domains) {
			t.Errorf("run %d: token has %d picks but only %d domains recorded", i, len(sched.Picks), len(rr.Domains))
		}
		stripped := rr
		stripped.Domains, stripped.Independent = nil, nil
		if got, want := stripped, plain.Runs[i]; got.Token != want.Token || got.Fingerprint != want.Fingerprint {
			t.Errorf("run %d: feedback option changed the run (token %q vs %q)", i, got.Token, want.Token)
		}
	}
}

// TestShardSpecValidate: the error cases a fleet coordinator (or a
// version-skewed worker) must be told about loudly.
func TestShardSpecValidate(t *testing.T) {
	bad := []ShardSpec{
		{Strategy: StrategyRandom, Start: 0, Runs: 0},
		{Strategy: StrategyRandom, Start: -1, Runs: 2},
		{Strategy: "anneal", Start: 0, Runs: 2},
		{Strategy: StrategyRandom, Start: 0, Runs: 2, Corpus: []string{"s1."}},
		{Strategy: StrategyDelay, Start: 0, Runs: 2, Prefixes: []string{"s1.", "s1."}},
		{Strategy: StrategyCoverage, Start: 6, Runs: 4}, // crosses generation 0→1
		{Strategy: StrategyCoverage, Start: 0, Runs: 2, Prefixes: []string{"s1.", "s1."}},
		{Strategy: StrategyExhaustive, Start: 0, Runs: 2, Prefixes: []string{"s1."}},
		{Strategy: StrategyExhaustive, Start: 0, Runs: 1, Prefixes: []string{"s1."}, Corpus: []string{"s1."}},
	}
	for _, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", spec)
		}
	}
	good := []ShardSpec{
		{Strategy: StrategyRandom, Seed: 9, Start: 5, Runs: 3},
		{Strategy: StrategyDelay, Start: 0, Runs: 4, DelayBound: 3},
		{Strategy: StrategyCoverage, Start: 8, Runs: 8, Corpus: []string{"s1.AQ"}},
		{Strategy: StrategyExhaustive, Start: 2, Runs: 2, Prefixes: []string{"s1.AQ", "s1.Ag"}},
	}
	for _, spec := range good {
		if err := spec.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", spec, err)
		}
	}
	if _, err := ShardStrategy(ShardSpec{Strategy: StrategyExhaustive, Start: 0, Runs: 1, Prefixes: []string{"bogus"}}); err == nil {
		t.Error("ShardStrategy with an unparseable prefix token: want error")
	}
}

// TestFinalize: rebuilding the aggregates from stitched runs matches the
// single-process aggregation — the merge invariant the fleet
// coordinator's byte-identical guarantee rests on.
func TestFinalize(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	full := mustRun(t, tg, WithRuns(12), WithSeed(3))
	want := resultJSON(t, full)

	rebuilt := &Result{
		Target:    full.Target,
		Strategy:  full.Strategy,
		Seed:      full.Seed,
		Requested: full.Requested,
		Runs:      append([]RunResult(nil), full.Runs...),
		// Poison the aggregates to prove Finalize rebuilds them.
		Fingerprints: []FingerprintStat{{Fingerprint: "bogus"}},
		Warnings:     []WarningStat{{Key: "bogus"}},
		Categories:   []CategoryStat{{Category: "bogus"}},
		NewGraphs:    999,
	}
	Finalize(tg, rebuilt)
	if got := resultJSON(t, rebuilt); got != want {
		t.Errorf("Finalize mismatch\nwant: %s\ngot:  %s", want, got)
	}
}
