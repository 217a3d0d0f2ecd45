// Command benchmark is the repository's performance benchmark. It runs
// one named workload for a fixed time, checks every operation's output
// against an oracle, and prints one JSON line with the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of a traced pass).
// See README.md for the workloads, the metrics and how they relate.
//
//	go run . -workload acmeair-coverage -seed 1 -seconds 10 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Pinned concurrency. GOMAXPROCS and every worker and client count are
// fixed, so allocation counts and throughput do not change with the
// host's core count; none is higher than the 2 cores the benchmark was
// tuned on.
const (
	maxProcs        = 2
	exploreWorkers  = 2 // explore.WithWorkers of every exploration
	serveJobWorkers = 1 // server.Config.Workers
	serveClients    = 2 // closed-loop HTTP clients
)

// setupReps is how many times set-up is repeated, each time from a
// freshly collected heap; setup_s is the median.
const setupReps = 21

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload prints untraced.
var endToEnd = []metricDef{
	{"schedules_per_s", "schedules/s"},
	{"verdict_ms_p50", "ms"},
	{"verdict_ms_p90", "ms"},
	{"requests_per_s", "requests/s"},
	{"allocs_per_schedule", "allocs/schedule"},
	{"allocs_per_request", "allocs/request"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"success_rate", "ratio"},
}

// perLayer lists the metrics every workload prints in the traced pass.
// A layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"explore.plan_us", "us"},
	{"explore.observe_us", "us"},
	{"explore.run_us", "us"},
	{"explore.reset_us", "us"},
	{"explore.worker_busy_ratio", "ratio"},
	{"explore.coordinator_share", "ratio"},
	{"explore.new_graph_ratio", "ratio"},
	{"explore.picks_per_schedule", "count"},
	{"explore.runner_warmup_ms", "ms"},
	{"acmeair.fixture_load_us", "us"},
	{"acmeair.fixture_allocs", "count"},
	{"acmeair.fixture_share", "ratio"},
	{"acmeair.requests_failed", "count"},
	{"eventloop.self_us", "us"},
	{"eventloop.ticks", "count"},
	{"eventloop.tool_share", "ratio"},
	{"eventloop.baseline_ms", "ms"},
	{"asyncgraph.builder_us", "us"},
	{"asyncgraph.builder_ns_per_event", "ns"},
	{"asyncgraph.events", "count"},
	{"asyncgraph.nodes", "count"},
	{"asyncgraph.edges", "count"},
	{"asyncgraph.fingerprint_us", "us"},
	{"asyncgraph.fingerprint_allocs", "count"},
	{"detect.online_us", "us"},
	{"detect.finish_us", "us"},
	{"detect.finish_allocs", "count"},
	{"detect.warnings", "count"},
	{"provenance.chains_ms", "ms"},
	{"provenance.replays", "count"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.queue_wait_ms_p90", "ms"},
	{"server.exec_ms_p50", "ms"},
	{"server.http_overhead_ms_p50", "ms"},
	{"server.rejected", "count"},
	{"trace.metrics_overhead_ratio", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.layer_runs", "count"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// window is the measured time of one pass: all of it untraced, or half
// untraced and half traced when the traced pass runs (the untraced half
// is the base of bench.trace_overhead_ratio).
func (c runConfig) window() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		d /= 2
	}
	return d
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	// unexpected lists oracle failures; any entry makes the run
	// incorrect.
	unexpected []string
	metrics    map[string]float64
	notes      []string // human-readable lines for standard error
	spans      []Span
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records a failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.unexpected = append(o.unexpected, fmt.Sprintf(format, args...))
}

type workloadFunc func(cfg runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"acmeair-coverage":  runAcmeAirCoverage,
	"serve-cases":       runServeCases,
	"fig6-instrumented": runFig6,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name ("+strings.Join(workloadNames(), ", ")+")")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured time of the run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: benchmark -workload {%s} -seed N -seconds S -trace {0|1}\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		path := filepath.Join(".bench_build", "spans", cfg.workload+".jsonl")
		if err := writeSpans(path, out.spans); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		out.notef("%d spans written to %s", len(out.spans), path)
	} else {
		out.metrics["peak_rss_mb"] = peakRSSMB()
		out.metrics["success_rate"] = ratio(float64(out.attempted-out.failed), float64(out.attempted))
	}
	line := resultLine{
		Correct:   len(out.unexpected) == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(os.Stderr, "benchmark: %s did not measure %s\n", cfg.workload, d.name)
			os.Exit(1)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	report(os.Stderr, cfg, out, line, defs)
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the human-readable summary: every metric by name and
// unit, the oracle's findings and the workload's notes.
func report(w io.Writer, cfg runConfig, out *outcome, line resultLine, defs []metricDef) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	pass := "end-to-end"
	if cfg.trace {
		pass = "traced pass"
	}
	fmt.Fprintf(bw, "workload %s, seed %d, %gs, %s; GOMAXPROCS %d\n", cfg.workload, cfg.seed, cfg.seconds, pass, runtime.GOMAXPROCS(0))
	for _, d := range defs {
		fmt.Fprintf(bw, "  %-34s %14.4f %s\n", d.name, line.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(bw, "  ops attempted %d, failed %d (error_rate %.4f)\n", out.attempted, out.failed, ratio(float64(out.failed), float64(out.attempted)))
	for _, u := range summarize(out.unexpected) {
		fmt.Fprintf(bw, "  ORACLE FAILURE: %s\n", u)
	}
	for _, n := range out.notes {
		fmt.Fprintf(bw, "  %s\n", n)
	}
}

// summarize collapses repeated messages into "message (xN)".
func summarize(msgs []string) []string {
	count := make(map[string]int)
	var order []string
	for _, m := range msgs {
		if count[m] == 0 {
			order = append(order, m)
		}
		count[m]++
	}
	out := make([]string, 0, len(order))
	for _, m := range order {
		out = append(out, fmt.Sprintf("%s (x%d)", m, count[m]))
	}
	return out
}

// peakRSSMB reads the process's peak resident set size. Where
// /proc/self/status is missing it falls back to the memory the Go
// runtime obtained from the system.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// latencyMetrics fills verdict_ms_p50/p90 from per-operation latencies
// in milliseconds, noting which tail percentile the sample count allows.
func latencyMetrics(out *outcome, latMs []float64) {
	out.metrics["verdict_ms_p50"] = median(latMs)
	used, v := tailPercentile(latMs, 90)
	out.metrics["verdict_ms_p90"] = v
	out.notef("verdict_ms_p90 is p%.1f of %d samples (%d beyond it)", used, len(latMs), countAbove(latMs, v))
}

// layerMetrics turns the totals and spans of the runs lt recorded into
// the per-run eventloop, asyncgraph, detect and acmeair metrics.
func layerMetrics(out *outcome, lt *layerTotals) {
	n := float64(lt.runs)
	m := out.metrics
	toolNs := float64(lt.builderNs + lt.detectNs)
	loopSelf := totalsByName(lt.rec.Spans())["eventloop.run"].Self
	m["eventloop.self_us"] = ratio(float64(loopSelf), n) / 1e3
	m["eventloop.ticks"] = ratio(float64(lt.ticks), n)
	m["eventloop.tool_share"] = ratio(toolNs, float64(lt.loopNs))
	m["asyncgraph.builder_us"] = ratio(float64(lt.builderNs), n) / 1e3
	m["asyncgraph.builder_ns_per_event"] = ratio(float64(lt.builderNs), float64(lt.builderEvents))
	m["asyncgraph.events"] = ratio(float64(lt.builderEvents), n)
	m["asyncgraph.nodes"] = ratio(float64(lt.nodes), n)
	m["asyncgraph.edges"] = ratio(float64(lt.edges), n)
	m["asyncgraph.fingerprint_us"] = ratio(float64(lt.fingerprintNs), n) / 1e3
	m["asyncgraph.fingerprint_allocs"] = ratio(float64(lt.fingerprintAllocs), n)
	m["detect.online_us"] = ratio(float64(lt.detectNs), n) / 1e3
	m["detect.finish_us"] = ratio(float64(lt.finishNs), n) / 1e3
	m["detect.finish_allocs"] = ratio(float64(lt.finishAllocs), n)
	m["detect.warnings"] = ratio(float64(lt.warnings), n)
	m["acmeair.fixture_load_us"] = ratio(float64(lt.fixtureNs), float64(lt.fixtureCalls)) / 1e3
	m["acmeair.fixture_allocs"] = ratio(float64(lt.fixtureAllocs), float64(lt.fixtureCalls))
	m["acmeair.requests_failed"] = float64(lt.requestsFailed)
	m["bench.layer_runs"] = n
	for _, mm := range lt.mismatches {
		out.unexpected = append(out.unexpected, "replay did not reproduce its run: "+mm)
	}
}

// exploreMetrics turns the traced explorations' spans into the explore
// layer's per-schedule metrics. wallNs is the summed wall time of the
// traced explorations.
func exploreMetrics(out *outcome, spans []Span, wallNs float64, schedules, newGraphs, picks int64) {
	tot := totalsByName(spans)
	n := float64(schedules)
	m := out.metrics
	run, warm, reset := tot["explore.run"], tot["explore.run.warmup"], tot["explore.reset"]
	plan, observe := tot["explore.plan"], tot["explore.observe"]
	m["explore.plan_us"] = ratio(float64(plan.Dur), n) / 1e3
	m["explore.observe_us"] = ratio(float64(observe.Dur), n) / 1e3
	m["explore.run_us"] = ratio(float64(run.Dur), float64(run.Calls)) / 1e3
	m["explore.reset_us"] = ratio(float64(reset.Dur), float64(reset.Calls)) / 1e3
	m["explore.worker_busy_ratio"] = ratio(float64(run.Dur+warm.Dur+reset.Dur), wallNs*exploreWorkers)
	m["explore.coordinator_share"] = ratio(float64(plan.Dur+observe.Dur), wallNs)
	m["explore.new_graph_ratio"] = ratio(float64(newGraphs), n)
	m["explore.picks_per_schedule"] = ratio(float64(picks), n)
}
