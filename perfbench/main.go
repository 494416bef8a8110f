// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator's packages and prints, as the last line
// of its standard output, one JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
//
// BENCHMARK.json at the repository root names the same workloads and
// metrics; main_test.go keeps the two in step.
//
// # Workloads
//
//   - paper-grid: harness.MeasureAll over the paper's nine benchmarks at
//     small scale on paper-4x8, P=32, two scheduler seeds, verification on
//     (the Table 7/8 protocol, what `numaws all` runs). Its host time goes
//     mostly to the task bodies, Morton addressing included, and to the
//     memory model, so it is where a faster coherence directory or
//     layout must show.
//   - spawn-tournament: harness.Tournament of every registered policy over
//     fib and nqueens at full scale on paper-4x8 and 8x16, verification
//     on, every cell simulated. Those benchmarks only compute, spawn and
//     sync, so the memory model and layout do no work: it is the bypass
//     workload for memory-side changes and the exercise workload for the
//     engine, the policies' hooks and the goroutine handoff.
//   - grid-service: a sweep server (internal/server) over a temp store,
//     behind httptest. Each cold pass POSTs one 120-run grid to a fresh
//     store, which simulates every run and appends it with fsync; the
//     warm phase re-POSTs the grid from one closed-loop client and every
//     row is served from the store. It is the only workload whose
//     simulations run through the server: admission, single-flight and
//     the store's write path under the service.
//
// Every workload runs protocol passes for part of the timed window, each
// on fresh input pools like a new process, recording every run in a new
// store file; the warm phase then serves the last pass's rows back
// through the sweep server. Passes must agree run for run, repeated
// tournaments must rank alike, and warm rows must equal the recorded ones
// and come from the store.
//
// # Seeds, times and validity
//
// --seed sets the first scheduler seed s (the grids use s and s+1).
// Benchmark inputs are the registry's fixed-seed inputs. Host times are
// wall time of this process, measured on a 2-vCPU shared VM whose speed
// drifts by about a sixth over minutes; simulated quantities are virtual
// cycles and repeat exactly for a seed. The model is unvalidated: the
// repository holds no measurements of real hardware, so no error figure
// is given for any simulated number.
//
// # Traced run
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd below).
// With --trace 1 the workload runs once untraced under a CPU profile and
// once with every call into the layers timed from this package (see
// trace.go), and the metrics are the per-layer ones (perLayer).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run reports: what a user of the
// simulator, its grid protocols or its sweep service sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"runs_per_s", "runs/s"},
	{"rows_per_s", "rows/s"},
	{"req_p50_ms", "ms"},
	{"max_rss_mb", "MB"},
	{"numaws_tp_cycles", "cycles"},
	{"numaws_work_inflation", "ratio"},
}

// cpuPackages are the profile buckets of the traced run's cpu_share
// metrics; flat samples in any other package count as "other".
var cpuPackages = []string{"layout", "cache", "memory", "workloads", "sched", "sim", "deque", "core", "runtime", "other"}

// cacheKinds name the cache.lines.<kind> metrics, in cache.Kind order.
var cacheKinds = []string{"private_hit", "local_llc", "remote_cache", "local_dram", "remote_dram"}

// perLayer are the metrics a --trace 1 run reports, grouped by the
// module whose calls they time or count.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"error_rate", "fraction"},
		{"workloads.body_s", "s"},
		{"workloads.checkout_s", "s"},
		{"workloads.verify_s", "s"},
		{"workloads.inputs_built", "count"},
		{"workloads.inputs_pooled", "count"},
		{"workloads.refs", "count"},
		{"cache.access_s", "s"},
		{"cache.calls", "count"},
		{"cache.lines", "count"},
		{"cache.ns_per_line", "ns"},
	}
	for _, k := range cacheKinds {
		defs = append(defs, metricDef{"cache.lines." + k, "count"})
	}
	defs = append(defs, []metricDef{
		{"cache.remote_frac", "fraction"},
		{"sched.handoff_s", "s"},
		{"sched.events", "count"},
		{"sched.ns_per_event", "ns"},
		{"sched.spawns", "count"},
		{"sched.steal_attempts", "count"},
		{"sched.steal_success", "fraction"},
		{"sched.push_success", "fraction"},
		{"sched.mailbox_steals", "count"},
		{"sched.bulk_steals", "count"},
		{"harness.other_s", "s"},
		{"trace_overhead", "ratio"},
		{"store.open_s", "s"},
		{"store.put_ms", "ms"},
		{"store.get_us", "us"},
		{"store.records", "count"},
		{"store.puts", "count"},
		{"store.hits", "count"},
		{"req_p99_ms", "ms"},
		{"server.first_row_ms", "ms"},
		{"server.bytes_per_row", "bytes"},
		{"server.cache_hits", "count"},
		{"server.simulated", "count"},
		{"server.coalesced", "count"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cpu_s", "s"},
	}...)
	for _, p := range cpuPackages {
		defs = append(defs, metricDef{"cpu_share." + p, "fraction"})
	}
	return defs
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run measured: the operation counts, the
// correctness problems it found, and the metric values by name.
type outcome struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// errorRate is failed operations over attempted ones.
func (o *outcome) errorRate() float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.failed) / float64(o.attempted)
}

// report renders the outcome against defs: every defined metric must have
// a finite value and nothing else may be present, so a metric that a code
// path forgot to measure fails loudly instead of going missing.
func report(defs []metricDef, o *outcome) (result, error) {
	res := result{
		Correct:   len(o.problems) == 0 && o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is not finite: %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(o.values) != len(defs) {
		var extra []string
		for name := range o.values {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return result{}, fmt.Errorf("undeclared metrics measured: %s", strings.Join(extra, ", "))
	}
	return res, nil
}

func main() { os.Exit(mainCode()) }

// mainCode is main with deferred clean-up: it returns the exit code, 0 for a
// correct run, 1 for a result with problems, 2 when nothing was measured.
func mainCode() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for the scheduler seeds of every simulated run")
	seconds := flag.Int("seconds", 30, "length of the timed phase, in seconds")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for the end-to-end run")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {%s} --seed N --seconds S --trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	b, err := newBench(w, *seed, time.Duration(*seconds)*time.Second, dir)
	if err != nil {
		return fail(err)
	}
	defer b.close()

	ctx := context.Background()
	var o *outcome
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
		o, err = b.runTraced(ctx)
	} else {
		o, err = b.runTimed(ctx)
	}
	if err != nil {
		return fail(err)
	}
	res, err := report(defs, o)
	if err != nil {
		return fail(err)
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 2
}
