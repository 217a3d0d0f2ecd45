package explore

import (
	"strings"
	"testing"
)

// TestFingerprintPartitionGolden pins which runs of three explorations
// share an Async Graph, independently of the hash values that name the
// graphs. Each run contributes one character to two strings:
//
//   - flags: '1' when the run produced a fingerprint no earlier run had
//     (RunResult.NewGraph), '0' otherwise;
//   - classes: the first-seen index of the run's fingerprint class,
//     written in base 62.
//
// A change to Graph.Fingerprint that merges two classes or splits one
// changes these strings (and, for coverage, the schedules themselves,
// since NewGraph is the strategy's feedback), so the test fails; a
// change that only renames the classes passes.
func TestFingerprintPartitionGolden(t *testing.T) {
	cases := []struct {
		name      string
		target    func() Target
		opts      []Option
		newGraphs int
		flags     string
		classes   string
	}{
		{
			name:      "acmeair-20-3-1/coverage/default",
			target:    func() Target { return AcmeAirTarget(20, 3, 1) },
			opts:      []Option{WithRuns(24), WithStrategy(NewCoverage(1))},
			newGraphs: 16,
			flags:     "111101001101100100111111",
			classes:   "012324225667811962abcdef",
		},
		{
			name:      "acmeair-60-4-5/random/all",
			target:    func() Target { return AcmeAirTarget(60, 4, 5) },
			opts:      []Option{WithRuns(48), WithStrategy(NewRandom(1)), WithKinds(AllKinds()...)},
			newGraphs: 24,
			flags:     "111110101110110100100111001000100010001011101000",
			classes:   "0123445467849a9bb9cc6defc9g239h99ei994jfklmjn6f2",
		},
		{
			name:      "SO-17894000/exhaustive-por/all",
			target:    func() Target { return caseTarget(t, "SO-17894000") },
			opts:      []Option{WithRuns(400), WithStrategy(NewExhaustive(true)), WithKinds(AllKinds()...)},
			newGraphs: 2,
			flags:     "11000000000000000000",
			classes:   "01110001000100110111",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := mustRun(t, tc.target(), append(tc.opts, WithWorkers(2))...)
			flags, classes := partitionStrings(res)
			if res.NewGraphs != tc.newGraphs {
				t.Errorf("NewGraphs = %d, want %d", res.NewGraphs, tc.newGraphs)
			}
			if flags != tc.flags {
				t.Errorf("NewGraph flags\n got %s\nwant %s", flags, tc.flags)
			}
			if classes != tc.classes {
				t.Errorf("fingerprint classes\n got %s\nwant %s", classes, tc.classes)
			}
		})
	}
}

// partitionStrings renders a Result's per-run NewGraph flags and
// first-seen fingerprint class indices (see TestFingerprintPartitionGolden).
func partitionStrings(res *Result) (flags, classes string) {
	const digits = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	var f, c strings.Builder
	class := make(map[string]int)
	for _, rr := range res.Runs {
		if rr.NewGraph {
			f.WriteByte('1')
		} else {
			f.WriteByte('0')
		}
		id, ok := class[rr.Fingerprint]
		if !ok {
			id = len(class)
			class[rr.Fingerprint] = id
		}
		if id < len(digits) {
			c.WriteByte(digits[id])
		} else {
			c.WriteByte('+')
		}
	}
	return f.String(), c.String()
}
