// Command benchgate turns a pair of `go test -bench` outputs into a hard
// CI gate. It compares a committed reference (e.g. BENCH_grid.txt) against
// a freshly produced run and fails when the new run drifts on anything the
// simulator promises to hold constant:
//
//   - every metric whose unit ends in "-cycles" is a simulated-cycle count
//     (TS, TP, work, span, ...), and every one ending in "-ops" is a
//     simulated operation count (engine events, steals, spawns, ...). The
//     simulator is deterministic, so these must match the reference
//     exactly — any difference is a semantic change, not noise.
//   - allocs/op may not exceed the reference by more than the slack factor
//     (default 1.25x, absorbing host and GOMAXPROCS variation in the
//     parallel harness paths).
//
// Wall-clock metrics (ns/op) and B/op are ignored: they depend on the host
// and belong in the report-only benchstat summary, not a gate.
//
// Benchmark names are matched with the trailing -GOMAXPROCS suffix
// stripped, so a reference recorded on an 8-core machine gates a run on a
// 4-core runner. Every benchmark present in the reference must appear in
// the new output; a missing benchmark fails the gate (a gate that silently
// shrinks is no gate). Because pooled inputs amortize construction across
// iterations, allocs/op depends on -benchtime: regenerate and gate with the
// same -benchtime as the reference.
//
// Usage:
//
//	benchgate -ref BENCH_grid.txt -new /tmp/bench.txt [-alloc-slack 1.25]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	ref := flag.String("ref", "", "committed reference benchmark output (required)")
	head := flag.String("new", "", "freshly produced benchmark output (required)")
	slack := flag.Float64("alloc-slack", 1.25, "allowed allocs/op growth factor over the reference")
	flag.Parse()
	if *ref == "" || *head == "" {
		fmt.Fprintln(os.Stderr, "benchgate: both -ref and -new are required")
		flag.Usage()
		os.Exit(2)
	}
	refRuns, err := parseFile(*ref)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	headRuns, err := parseFile(*head)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	failures := gate(refRuns, headRuns, *slack)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "FAIL: %s\n", f)
		}
		fmt.Fprintf(os.Stderr, "benchgate: %d failure(s) across %d reference benchmarks\n",
			len(failures), len(refRuns))
		os.Exit(1)
	}
	fmt.Printf("benchgate: OK — %d benchmarks, all simulated-cycle and -ops metrics exact, allocs/op within %.2fx\n",
		len(refRuns), *slack)
}

// metrics maps a metric unit (e.g. "T32-cycles", "allocs/op") to its value.
type metrics map[string]float64

// parseFile reads `go test -bench` text output into per-benchmark metrics,
// keyed by benchmark name with the -GOMAXPROCS suffix stripped.
func parseFile(path string) (map[string]metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]metrics)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, m, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		out[name] = m
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark result lines found", path)
	}
	return out, nil
}

// parseLine parses one benchmark result line: the name, the iteration
// count, then (value, unit) pairs. Non-result lines return ok=false.
func parseLine(line string) (string, metrics, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", nil, false // e.g. a "BenchmarkFoo" header split across lines
	}
	m := make(metrics)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		m[fields[i+1]] = v
	}
	return stripProcs(fields[0]), m, true
}

// stripProcs removes the trailing -GOMAXPROCS suffix go test appends to
// benchmark names, so references transfer across machine core counts.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// gate compares the new run against the reference and returns one message
// per violation, in deterministic (sorted) order.
func gate(ref, head map[string]metrics, slack float64) []string {
	names := make([]string, 0, len(ref))
	for n := range ref {
		names = append(names, n)
	}
	sort.Strings(names)
	var failures []string
	for _, n := range names {
		hm, ok := head[n]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in reference but missing from new run", n))
			continue
		}
		units := make([]string, 0, len(ref[n]))
		for u := range ref[n] {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			rv := ref[n][u]
			switch {
			case strings.HasSuffix(u, "-cycles") || strings.HasSuffix(u, "-ops"):
				hv, ok := hm[u]
				if !ok {
					failures = append(failures, fmt.Sprintf("%s: metric %s missing from new run", n, u))
				} else if hv != rv {
					failures = append(failures, fmt.Sprintf(
						"%s: %s drifted: reference %v, new %v (simulated counts must match exactly)", n, u, rv, hv))
				}
			case u == "allocs/op":
				hv, ok := hm[u]
				if !ok {
					failures = append(failures, fmt.Sprintf("%s: allocs/op missing from new run", n))
				} else if hv > rv*slack {
					failures = append(failures, fmt.Sprintf(
						"%s: allocs/op regressed: reference %v, new %v (limit %.0f at %.2fx slack)",
						n, rv, hv, rv*slack, slack))
				}
			}
		}
	}
	return failures
}
