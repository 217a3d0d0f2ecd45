package explore

import (
	"encoding/json"
	"testing"

	"asyncg/internal/eventloop"
)

// FuzzShardStrategy: a shard spec arrives over HTTP as JSON (serve's
// jobSpec.shard). Whatever it decodes to, ShardStrategy either refuses
// it or returns a strategy that is ready for every run of the window,
// done right after it, and whose pick functions answer without
// panicking. Windows too wide to walk are sampled at both ends.
func FuzzShardStrategy(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec ShardSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		s, err := ShardStrategy(spec)
		if err != nil {
			return
		}
		const sample = 16
		for j := 0; j < spec.Runs; j++ {
			if j == sample && spec.Runs > 2*sample {
				j = spec.Runs - sample
			}
			next, state := s.Plan(j)
			if state != PlanReady || next == nil {
				t.Fatalf("%+v: Plan(%d) = %v, want PlanReady", spec, j, state)
			}
			for pos := 0; pos < 8; pos++ {
				next(pos, eventloop.ChoiceIOOrder, 2+pos%3)
			}
			s.Observe(Feedback{Index: j})
		}
		if _, state := s.Plan(spec.Runs); state != PlanDone {
			t.Fatalf("%+v: Plan(%d) = %v, want PlanDone", spec, spec.Runs, state)
		}
	})
}

// FuzzFeedbackOf: run lines arrive from fleet workers. FeedbackOf never
// panics on one, and the picks of a run it accepts cover both its token
// and its recorded domains.
func FuzzFeedbackOf(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var rr RunResult
		if json.Unmarshal(data, &rr) != nil {
			return
		}
		fb, err := FeedbackOf(rr)
		if err != nil {
			return
		}
		sched, err := ParseToken(rr.Token)
		if err != nil {
			t.Fatalf("FeedbackOf accepted token %q that ParseToken rejects: %v", rr.Token, err)
		}
		if want := max(len(rr.Domains), len(sched.Picks)); len(fb.Picks) != want {
			t.Fatalf("%s: %d picks, want %d", data, len(fb.Picks), want)
		}
	})
}
