package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	name, m, ok := parseLine(
		"BenchmarkTable7/cg/numaws-8 \t 3\t  24666667 ns/op\t 123456 T32-cycles\t 13457 allocs/op\t 11300000 B/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if name != "BenchmarkTable7/cg/numaws" {
		t.Fatalf("name = %q, want procs suffix stripped", name)
	}
	for unit, want := range map[string]float64{
		"ns/op": 24666667, "T32-cycles": 123456, "allocs/op": 13457, "B/op": 11300000,
	} {
		if m[unit] != want {
			t.Errorf("%s = %v, want %v", unit, m[unit], want)
		}
	}
}

func TestParseLineRejectsNonResults(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"pkg: repro",
		"BenchmarkTable7/cg/numaws-8", // name-only header line
		"PASS",
		"ok  \trepro\t12.3s",
		"",
	} {
		if _, _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted a non-result line", line)
		}
	}
}

func TestStripProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFoo-8":        "BenchmarkFoo",
		"BenchmarkFoo-128":      "BenchmarkFoo",
		"BenchmarkFoo/sub-2-4":  "BenchmarkFoo/sub-2",
		"BenchmarkFoo/sub-name": "BenchmarkFoo/sub-name",
		"BenchmarkFoo":          "BenchmarkFoo",
	} {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGate(t *testing.T) {
	ref := map[string]metrics{
		"BenchmarkA": {"T32-cycles": 1000, "allocs/op": 100, "ns/op": 5000},
		"BenchmarkB": {"TP-cycles": 42, "allocs/op": 10, "events-ops": 7000},
	}
	t.Run("identical passes", func(t *testing.T) {
		if f := gate(ref, ref, 1.25); len(f) != 0 {
			t.Fatalf("unexpected failures: %v", f)
		}
	})
	t.Run("wall time ignored", func(t *testing.T) {
		head := map[string]metrics{
			"BenchmarkA": {"T32-cycles": 1000, "allocs/op": 100, "ns/op": 99999999},
			"BenchmarkB": {"TP-cycles": 42, "allocs/op": 10, "events-ops": 7000},
		}
		if f := gate(ref, head, 1.25); len(f) != 0 {
			t.Fatalf("ns/op change should not gate: %v", f)
		}
	})
	t.Run("cycle drift fails", func(t *testing.T) {
		head := map[string]metrics{
			"BenchmarkA": {"T32-cycles": 1001, "allocs/op": 100},
			"BenchmarkB": {"TP-cycles": 42, "allocs/op": 10, "events-ops": 7000},
		}
		f := gate(ref, head, 1.25)
		if len(f) != 1 || !strings.Contains(f[0], "T32-cycles drifted") {
			t.Fatalf("want one cycle-drift failure, got %v", f)
		}
	})
	t.Run("op count drift fails", func(t *testing.T) {
		head := map[string]metrics{
			"BenchmarkA": {"T32-cycles": 1000, "allocs/op": 100},
			"BenchmarkB": {"TP-cycles": 42, "allocs/op": 10, "events-ops": 6999},
		}
		f := gate(ref, head, 1.25)
		if len(f) != 1 || !strings.Contains(f[0], "events-ops drifted") {
			t.Fatalf("want one op-count drift failure, got %v", f)
		}
	})
	t.Run("missing op count fails", func(t *testing.T) {
		head := map[string]metrics{
			"BenchmarkA": {"T32-cycles": 1000, "allocs/op": 100},
			"BenchmarkB": {"TP-cycles": 42, "allocs/op": 10},
		}
		f := gate(ref, head, 1.25)
		if len(f) != 1 || !strings.Contains(f[0], "metric events-ops missing") {
			t.Fatalf("want one missing-metric failure, got %v", f)
		}
	})
	t.Run("alloc regression fails", func(t *testing.T) {
		head := map[string]metrics{
			"BenchmarkA": {"T32-cycles": 1000, "allocs/op": 126},
			"BenchmarkB": {"TP-cycles": 42, "allocs/op": 10, "events-ops": 7000},
		}
		f := gate(ref, head, 1.25)
		if len(f) != 1 || !strings.Contains(f[0], "allocs/op regressed") {
			t.Fatalf("want one alloc failure, got %v", f)
		}
	})
	t.Run("alloc within slack passes", func(t *testing.T) {
		head := map[string]metrics{
			"BenchmarkA": {"T32-cycles": 1000, "allocs/op": 124},
			"BenchmarkB": {"TP-cycles": 42, "allocs/op": 10, "events-ops": 7000},
		}
		if f := gate(ref, head, 1.25); len(f) != 0 {
			t.Fatalf("unexpected failures: %v", f)
		}
	})
	t.Run("missing benchmark fails", func(t *testing.T) {
		head := map[string]metrics{
			"BenchmarkA": {"T32-cycles": 1000, "allocs/op": 100},
		}
		f := gate(ref, head, 1.25)
		if len(f) != 1 || !strings.Contains(f[0], "missing from new run") {
			t.Fatalf("want one missing-benchmark failure, got %v", f)
		}
	})
}

func TestParseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.txt")
	text := "goos: linux\n" +
		"goarch: amd64\n" +
		"pkg: repro\n" +
		"BenchmarkTable7/cg/cilk-8 \t 3\t 30000000 ns/op\t 2000 T32-cycles\t 15000 allocs/op\n" +
		"BenchmarkTable7/cg/numaws-8 \t 3\t 24666667 ns/op\t 1800 T32-cycles\t 13457 allocs/op\n" +
		"PASS\n" +
		"ok  \trepro\t1.2s\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	runs, err := parseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(runs))
	}
	if runs["BenchmarkTable7/cg/numaws"]["T32-cycles"] != 1800 {
		t.Fatalf("wrong metrics: %v", runs["BenchmarkTable7/cg/numaws"])
	}
	if _, err := parseFile(filepath.Join(dir, "empty.txt")); err == nil {
		t.Fatal("missing file should error")
	}
}
