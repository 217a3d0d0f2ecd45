package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"asyncg/internal/explore"
)

var update = flag.Bool("update", false, "rewrite testdata/shard_specs.golden")

// journaledSpecs runs the plan on workers and returns the ShardSpec of
// every journaled shard, in shard order, as JSON.
func journaledSpecs(t *testing.T, p Plan, workers []string) []string {
	t.Helper()
	dir := t.TempDir()
	if _, _, err := Run(context.Background(), Config{Plan: p, Workers: workers, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	var specs []string
	for _, path := range paths { // Glob sorts, and shard names are zero-padded
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 16<<20)
		if !sc.Scan() {
			t.Fatalf("%s: empty shard file", path)
		}
		var hdr struct {
			Spec json.RawMessage `json:"spec"`
		}
		if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		f.Close()
		specs = append(specs, string(hdr.Spec))
	}
	return specs
}

// TestShardSpecGolden pins the shard specs the coordinator journals:
// the plans of TestFleetMatchesSingleProcess at shard widths 3 and 5,
// plus a delay plan that leaves DelayBound to its default. A spec that
// changes breaks -resume of journals written by an earlier build (the
// journal version must then be bumped). Exhaustive cuts must not depend
// on completion timing, so those plans are re-run at 1 and 2 workers,
// five times each, and must journal the same specs every time.
func TestShardSpecGolden(t *testing.T) {
	plans := []Plan{
		{Target: caseTarget, Strategy: explore.StrategyRandom, Seed: 3, Runs: 16},
		{Target: caseTarget, Strategy: explore.StrategyDelay, Seed: 7, Runs: 16, DelayBound: 2},
		{Target: caseTarget, Strategy: explore.StrategyCoverage, Seed: 11, Runs: 40},
		{Target: caseTarget, Strategy: explore.StrategyExhaustive, Seed: 1, Runs: 60, Kinds: "io-order,latency"},
		{Target: caseTarget, Strategy: explore.StrategyExhaustive, Seed: 1, Runs: 60, Kinds: "io-order,latency", POR: true},
	}
	workers := startWorkers(t, 2)
	var got bytes.Buffer
	row := func(name string, p Plan) {
		specs := journaledSpecs(t, p, workers)
		if p.Strategy == explore.StrategyExhaustive {
			for rep := 0; rep < 5; rep++ {
				for n := 1; n <= len(workers); n++ {
					again := journaledSpecs(t, p, workers[:n])
					if !slices.Equal(again, specs) {
						t.Errorf("%s: repetition %d at %d worker(s) journaled\n%v\nwant\n%v", name, rep, n, again, specs)
					}
				}
			}
		}
		fmt.Fprintf(&got, "%s\n", name)
		for _, s := range specs {
			fmt.Fprintf(&got, "\t%s\n", s)
		}
	}
	for _, p := range plans {
		for _, width := range []int{3, 5} {
			p.ShardRuns = width
			name := fmt.Sprintf("%s-w%d", p.Strategy, width)
			if p.POR {
				name = fmt.Sprintf("%s-por-w%d", p.Strategy, width)
			}
			row(name, p)
		}
	}
	row("delay-default-bound-w5", Plan{Target: caseTarget, Strategy: explore.StrategyDelay, Seed: 7, Runs: 16, ShardRuns: 5})

	path := filepath.Join("testdata", "shard_specs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("journaled shard specs differ from %s (run with -update to accept)\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
