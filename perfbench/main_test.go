package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json's workloads and metric
// tables, names and units, to the ones this program runs and emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	for _, c := range []struct {
		section string
		listed  []named
		defs    []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Errorf("%s lists %d metrics, program emits %d", c.section, len(c.listed), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.listed[i].Name != d.name || c.listed[i].Unit != d.unit {
				t.Errorf("%s[%d] is %s (%s), program emits %s (%s)",
					c.section, i, c.listed[i].Name, c.listed[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestReportEmitsEveryMetricWithItsUnit checks that a report carries
// every declared metric with its unit, and refuses a missing, an
// undeclared or a non-finite one.
func TestReportEmitsEveryMetricWithItsUnit(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		full := func() *outcome {
			o := &outcome{attempted: 1, values: map[string]float64{}}
			for i, d := range defs {
				o.values[d.name] = float64(i) + 0.5
			}
			return o
		}
		res, err := report(defs, full())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || len(res.Metrics) != len(defs) {
			t.Fatalf("report of a complete outcome: %+v", res)
		}
		for i, d := range defs {
			if m := res.Metrics[d.name]; m.Unit != d.unit || m.Value != float64(i)+0.5 {
				t.Errorf("metric %s reported as %+v", d.name, m)
			}
		}
		o := full()
		delete(o.values, defs[0].name)
		if _, err := report(defs, o); err == nil {
			t.Errorf("a missing %s was not refused", defs[0].name)
		}
		o = full()
		o.values["undeclared"] = 1
		if _, err := report(defs, o); err == nil {
			t.Error("an undeclared metric was not refused")
		}
		o = full()
		o.values[defs[0].name] = math.NaN()
		if _, err := report(defs, o); err == nil {
			t.Error("a NaN metric was not refused")
		}
	}
}

// TestInjectedFailuresRaiseErrorRate injects a failed run (a plan run the
// store holds no record for, as the harness never records failures) and a
// failed warm row, and checks both count as failed operations.
func TestInjectedFailuresRaiseErrorRate(t *testing.T) {
	machines, err := harness.Machines([]string{"2x4"})
	if err != nil {
		t.Fatal(err)
	}
	var fib workloads.Spec
	for _, sp := range workloads.Specs(workloads.ScaleSmall) {
		if sp.Name == "fib" {
			fib = sp
		}
	}
	plan := []run{
		{spec: fib, mach: machines[0], p: 1, seed: 1},
		{spec: fib, pol: sched.Cilk, mach: machines[0], p: 8, seed: 1},
		{spec: fib, pol: sched.NUMAWS, mach: machines[0], p: 8, seed: 1},
	}
	recs := map[journal.Key]journal.Result{}
	for i, r := range plan[:2] {
		recs[r.key()] = journal.Result{Time: int64(100 + i)}
	}
	o := &outcome{values: map[string]float64{}}
	p := account(plan, recs, o)
	if p.failed != 1 || o.failed != 1 || o.attempted != 3 || o.errorRate() != 1.0/3 {
		t.Fatalf("one missing record of three: pass failed %d, outcome %d/%d, error rate %v",
			p.failed, o.failed, o.attempted, o.errorRate())
	}
	o.values["error_rate"] = o.errorRate()
	if res, err := report([]metricDef{{"error_rate", "fraction"}}, o); err != nil || res.Correct {
		t.Errorf("a run with a failed operation reported %+v, %v", res, err)
	}

	row := gridRow{Bench: "fib", Topology: "2x4", Policy: "cilk", P: 8, Seed: 1, Cached: true, Time: 101}
	want := map[string]journal.Result{row.id(): {Time: 101}}
	ok := &gridResponse{status: 200, rows: []gridRow{row}, done: &gridSummary{Rows: 1, Cached: 1}}
	if bad := ok.check(want, true); bad != "" {
		t.Fatalf("a good warm response was refused: %s", bad)
	}
	row.Err = &struct {
		Kind string `json:"kind"`
		Msg  string `json:"msg"`
	}{"verify", "injected"}
	failed := &gridResponse{status: 200, rows: []gridRow{row}, done: &gridSummary{Rows: 1, Cached: 1}}
	if failed.check(want, true) == "" {
		t.Error("a warm response with a failed row was accepted")
	}
	truncated := &gridResponse{status: 200, rows: ok.rows}
	if truncated.check(want, true) == "" {
		t.Error("a warm response without its done trailer was accepted")
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
