package explore

import (
	"fmt"
	"reflect"
	"testing"

	"asyncg"
	"asyncg/internal/acmeair"
	"asyncg/internal/eventloop"
	"asyncg/internal/mongosim"
)

// TestRunnerReuseMatchesFresh is the Runner contract's observational
// half: a pool worker that keeps one runner alive and interleaves
// Reset+Run across many schedules must produce byte-identical Results
// to fresh-session-per-run execution, at every worker count. The two
// variants are forced by giving the Target one kind of runner each —
// fresh builds a new runner for every schedule (cold runtime every
// time), reused keeps pooled loop/graph/detector state. Run under
// -race this also exercises the handoff of pooled choosers and RNGs
// between the coordinator and worker goroutines.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	fresh := tg
	fresh.NewRunner = oneShot(func(extra ...asyncg.Option) (*asyncg.Report, error) { return tg.NewRunner().Run(extra...) })
	reused := tg

	// Options are rebuilt per exploration: strategies like coverage are
	// stateful objects, and sharing one instance across explorations
	// would leak corpus from run to run.
	configs := []struct {
		name string
		opts func() []Option
	}{
		{"random", func() []Option { return []Option{WithSeed(5), WithRuns(24)} }},
		{"random-metrics", func() []Option { return []Option{WithSeed(5), WithRuns(12), WithRunMetrics()} }},
		{"delay", func() []Option { return []Option{WithStrategy(NewDelay(9, 2)), WithRuns(16)} }},
		{"coverage", func() []Option { return []Option{WithStrategy(NewCoverage(11)), WithRuns(24)} }},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 4, 8} {
				freshOpts := append(tc.opts(), WithWorkers(workers))
				reuseOpts := append(tc.opts(), WithWorkers(workers))
				freshJSON := resultJSON(t, mustRun(t, fresh, freshOpts...))
				reuseJSON := resultJSON(t, mustRun(t, reused, reuseOpts...))
				if reuseJSON != freshJSON {
					t.Fatalf("workers=%d: reused-runner result differs from fresh-session result\nfresh:  %s\nreused: %s",
						workers, freshJSON, reuseJSON)
				}
				if want == "" {
					want = freshJSON
				} else if freshJSON != want {
					t.Fatalf("workers=%d: result differs from workers=1\nwant: %s\ngot:  %s", workers, want, freshJSON)
				}
			}
		})
	}
}

// TestRunnerReuseFleetMerge is the distributed version of the same
// contract: shard a seeded exploration into windows, run every shard on
// reused runners at varying worker counts, stitch the runs back in
// global order exactly the way the fleet coordinator's absorb does
// (re-index, recompute NewGraph against the global census, strip
// wire-only feedback), and Finalize. The merged Result must be
// byte-identical to the single-process exploration.
func TestRunnerReuseFleetMerge(t *testing.T) {
	tg := caseTarget(t, "SO-17894000")
	reused := tg

	const total, seed = 16, 3
	full := mustRun(t, tg, WithSeed(seed), WithRuns(total))
	want := resultJSON(t, full)

	merged := &Result{
		Target:    full.Target,
		Strategy:  full.Strategy,
		Seed:      full.Seed,
		Requested: full.Requested,
	}
	seen := make(map[string]bool)
	workerCycle := []int{1, 4, 8}
	for i, w := range shardWindows(total, 5) {
		spec := ShardSpec{Strategy: StrategyRandom, Seed: seed, Start: w[0], Runs: w[1]}
		strat, err := ShardStrategy(spec)
		if err != nil {
			t.Fatalf("ShardStrategy(%+v): %v", spec, err)
		}
		shard := mustRun(t, reused, WithStrategy(strat), WithRuns(spec.Runs),
			WithWorkers(workerCycle[i%len(workerCycle)]))
		for j, rr := range shard.Runs {
			rr.Index = w[0] + j
			rr.NewGraph = false
			if !seen[rr.Fingerprint] {
				seen[rr.Fingerprint] = true
				rr.NewGraph = true
			}
			rr.NewGraphs = len(seen)
			rr.Domains, rr.Independent = nil, nil
			merged.Runs = append(merged.Runs, rr)
		}
	}
	Finalize(reused, merged)
	if got := resultJSON(t, merged); got != want {
		t.Errorf("fleet-style merge on reused runners differs from single-process run\nwant: %s\ngot:  %s", want, got)
	}
}

// TestAcmeAirRunnerReuseMatchesFresh is TestRunnerReuseMatchesFresh
// for the AcmeAir target, whose runner loads the sample database once
// and Resets it to a checkpoint instead of reloading it. data-order
// (in AllKinds) permutes query results, so it also checks that the
// restored collections keep the natural order of a fresh load.
func TestAcmeAirRunnerReuseMatchesFresh(t *testing.T) {
	kindSets := []struct {
		name  string
		kinds []eventloop.ChoiceKind
	}{{"default", DefaultKinds()}, {"all", AllKinds()}}
	for _, driver := range []int64{1, 2} {
		tg := AcmeAirTarget(20, 3, driver)
		fresh := tg
		fresh.NewRunner = oneShot(func(extra ...asyncg.Option) (*asyncg.Report, error) { return tg.NewRunner().Run(extra...) })
		reused := tg
		for _, ks := range kindSets {
			t.Run(fmt.Sprintf("driver%d-%s", driver, ks.name), func(t *testing.T) {
				opts := func(workers int) []Option {
					return []Option{WithStrategy(NewCoverage(driver)), WithRuns(12), WithKinds(ks.kinds...), WithWorkers(workers)}
				}
				var want string
				for _, workers := range []int{1, 2, 4} {
					freshJSON := resultJSON(t, mustRun(t, fresh, opts(workers)...))
					reuseJSON := resultJSON(t, mustRun(t, reused, opts(workers)...))
					if reuseJSON != freshJSON {
						t.Fatalf("workers=%d: reused-runner result differs from fresh-session result\nfresh:  %s\nreused: %s",
							workers, freshJSON, reuseJSON)
					}
					if want == "" {
						want = freshJSON
					} else if freshJSON != want {
						t.Fatalf("workers=%d: result differs from workers=1\nwant: %s\ngot:  %s", workers, want, freshJSON)
					}
				}
			})
		}
	}
}

// trafficRunner counts, after every run of the AcmeAir runner it wraps,
// the bookings and updated customer profiles the run left in the DB.
type trafficRunner struct {
	*acmeAirRunner
	runs, bookings, updates int
}

func (r *trafficRunner) Run(extra ...asyncg.Option) (*asyncg.Report, error) {
	rep, err := r.acmeAirRunner.Run(extra...)
	r.runs++
	r.bookings += r.db.C(acmeair.ColBookings).Len()
	for _, doc := range r.db.C(acmeair.ColCustomers).Docs() {
		if doc["phoneNumber"] == "919-555-0000" { // the driver's profile update
			r.updates++
		}
	}
	return rep, err
}

// TestAcmeAirRunnerFixtureIntegrity: after a dozen reused runs whose
// traffic books flights (inserting bookings, updating miles) and edits
// profiles, a Reset runner's database must deep-equal a freshly loaded
// one, down to the next _id it hands out. The runs perturb data order
// only: it varies which flights get booked while every run still serves
// all of its requests.
func TestAcmeAirRunnerFixtureIntegrity(t *testing.T) {
	tg := AcmeAirTarget(60, 3, 1)
	tr := &trafficRunner{acmeAirRunner: tg.NewRunner().(*acmeAirRunner)}
	shared := Target{Name: tg.Name, NewRunner: func() Runner { return tr }}
	mustRun(t, shared, WithSeed(3), WithRuns(12), WithKinds(eventloop.ChoiceDataOrder), WithWorkers(1))
	if tr.runs < 10 || tr.bookings == 0 || tr.updates == 0 {
		t.Fatalf("traffic too thin to test the fixture: %d runs, %d bookings, %d profile updates", tr.runs, tr.bookings, tr.updates)
	}
	tr.Reset()

	fresh := mongosim.New(eventloop.New(eventloop.Options{}), mongosim.Options{})
	acmeair.LoadSampleData(fresh, acmeair.DefaultDataSpec())
	for _, name := range []string{acmeair.ColCustomers, acmeair.ColSessions, acmeair.ColFlights, acmeair.ColSegments, acmeair.ColBookings} {
		if got, want := tr.db.C(name).Docs(), fresh.C(name).Docs(); !reflect.DeepEqual(got, want) {
			t.Errorf("collection %s after Reset differs from a fresh load (%d vs %d documents)", name, len(got), len(want))
		}
	}
	if got, want := tr.db.C(acmeair.ColBookings).InsertSync(mongosim.Document{})["_id"], fresh.C(acmeair.ColBookings).InsertSync(mongosim.Document{})["_id"]; got != want {
		t.Errorf("next _id after Reset = %v, fresh load = %v", got, want)
	}
}

// TestAcmeAirRunnerSteadyStateAllocs gates the runner contract's
// allocation claim on the heaviest target: once an acmeAirRunner is
// warm, Reset+Run must recycle the session's arenas and restore the
// sample database from its checkpoint instead of rebuilding either. A
// fresh session loads the 740-document sample data on every run; a warm
// runner allocates only per-run state (app wiring, workload driver,
// inserted documents), measured at ~0.35 of the fresh path. A Reset that
// stops recycling, or a runner that reloads the fixture, pushes the
// ratio past 0.8.
func TestAcmeAirRunnerSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("acmeair steady-state allocation gate in -short mode")
	}
	tg := AcmeAirTarget(20, 3, 1)
	runner := tg.NewRunner()
	for i := 0; i < 4; i++ { // warm the pools past cold-start growth
		runner.Reset()
		if _, err := runner.Run(); err != nil {
			t.Fatalf("warmup run %d: %v", i, err)
		}
	}
	steady := testing.AllocsPerRun(5, func() {
		runner.Reset()
		if _, err := runner.Run(); err != nil {
			t.Fatalf("measured run: %v", err)
		}
	})
	fresh := testing.AllocsPerRun(3, func() {
		if _, err := tg.NewRunner().Run(); err != nil {
			t.Fatalf("fresh run: %v", err)
		}
	})
	if ratio := steady / fresh; ratio > 0.5 {
		t.Errorf("steady-state AllocsPerRun = %.0f vs fresh-session %.0f (ratio %.2f, want <= 0.5): runner reuse regressed toward fresh-session allocation", steady, fresh, ratio)
	}
}
