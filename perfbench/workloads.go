package main

// The three workloads. Each is a protocol a user runs (a paper grid, a
// policy tournament, a grid through the sweep service), a plan listing
// every simulation the protocol performs, and a /v1/grid request that
// serves the protocol's recorded rows back warm. Scheduler seeds come
// from the seed argument; benchmark inputs are the registry's fixed-seed
// inputs.

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/workloads"
)

type workload struct {
	name     string
	scale    workloads.Scale
	machines []string
	// warmPerPass is the length of the warm slice that follows each
	// protocol pass, relative to the pass's wall time.
	warmPerPass float64
	plan        func(b *bench) []run
	// protocol runs the workload once, recording every completed run in
	// the store or journal file at path; it returns the tournament
	// ranking, if the protocol has one.
	protocol func(ctx context.Context, b *bench, plan []run, path string, o *outcome) ([]string, error)
	// warm is the /v1/grid request the warm phase repeats; every row it
	// expands to must be in the plan.
	warm func(b *bench) gridRequest
}

// gridRequest is the body of POST /v1/grid.
type gridRequest struct {
	Benches    []string `json:"benches"`
	Topologies []string `json:"topologies"`
	Policies   []string `json:"policies"`
	Workers    []int    `json:"workers"`
	Seeds      []int64  `json:"seeds"`
	Scale      string   `json:"scale"`
	Serial     bool     `json:"serial,omitempty"`
}

// paperNine are the paper's benchmark configurations (Tables 7 and 8).
var paperNine = []string{"cg", "cilksort", "heat", "hull1", "hull2", "matmul", "matmul-z", "strassen", "strassen-z"}

// spawnOnly are benchmarks that only compute, spawn and sync: they never
// touch the memory model or matrix addressing.
var spawnOnly = []string{"fib", "nqueens"}

// serviceBenches is the sweep-service grid's benchmark axis: memory-bound
// and spawn-bound small-scale benchmarks.
var serviceBenches = []string{"cg", "cilksort", "heat", "hull1", "fib", "nqueens"}

var allWorkloads = []*workload{
	{
		// harness.MeasureAll over the paper nine at small scale on the
		// paper machine, P=32, two scheduler seeds, verification on: the
		// Table 7/8 protocol `numaws all` runs. Most host time goes to the
		// memory model and the task bodies (layout and arithmetic).
		name: "paper-grid", scale: workloads.ScaleSmall, machines: []string{"paper-4x8"},
		warmPerPass: 0.5,
		plan: func(b *bench) []run {
			m := b.machines[0]
			var plan []run
			for _, name := range paperNine {
				sp := b.spec(name)
				plan = append(plan, run{spec: sp, mach: m, p: 1, seed: b.seed})
				for _, pol := range []sched.Policy{sched.Cilk, sched.NUMAWS} {
					plan = append(plan, run{spec: sp, pol: pol, mach: m, p: 1, seed: b.seed})
					for s := int64(0); s < 2; s++ {
						plan = append(plan, run{spec: sp, pol: pol, mach: m, p: m.Top.Cores(), seed: b.seed + s})
					}
				}
			}
			return plan
		},
		protocol: paperGrid,
		warm: func(b *bench) gridRequest {
			return gridRequest{
				Benches: paperNine, Topologies: b.w.machines, Policies: []string{"cilk", "numaws"},
				Workers: []int{b.machines[0].Top.Cores()}, Seeds: []int64{b.seed, b.seed + 1},
				Scale: "small", Serial: true,
			}
		},
	},
	{
		// harness.Tournament over fib and nqueens at full scale on the
		// paper machine and an 8x16 ring, every registered policy,
		// verification on, every cell simulated. Neither benchmark touches
		// memory, so this exercises the engine, the policies' hooks and the
		// goroutine handoff, and bypasses the memory model. The pass adds
		// one NUMA-WS one-worker run per cell for work inflation.
		name: "spawn-tournament", scale: workloads.ScaleFull, machines: []string{"paper-4x8", "8x16"},
		warmPerPass: 0.4,
		plan: func(b *bench) []run {
			var plan []run
			for _, pol := range harness.RegisteredPolicies() {
				for _, name := range spawnOnly {
					for _, m := range b.machines {
						plan = append(plan, run{spec: b.spec(name), pol: pol, mach: m, p: m.Top.Cores(), seed: b.seed})
					}
				}
			}
			for _, name := range spawnOnly {
				for _, m := range b.machines {
					plan = append(plan, run{spec: b.spec(name), pol: sched.NUMAWS, mach: m, p: 1, seed: b.seed})
				}
			}
			return plan
		},
		protocol: spawnTournament,
		warm: func(b *bench) gridRequest {
			return gridRequest{
				Benches: spawnOnly, Topologies: b.w.machines, Policies: sched.Names(),
				Workers: []int{0}, Seeds: []int64{b.seed}, Scale: "full",
			}
		},
	},
	{
		// A sweep server over a fresh store, loaded over HTTP: the cold
		// phase POSTs one 120-run grid that is simulated and appended to
		// the store with fsync (the store's write path), the warm phase
		// re-POSTs it from closed-loop clients and every row is served from
		// the store (the read, encode and stream path).
		name: "grid-service", scale: workloads.ScaleSmall, machines: []string{"paper-4x8"},
		warmPerPass: 1,
		plan: func(b *bench) []run {
			m := b.machines[0]
			var plan []run
			for _, name := range serviceBenches {
				for _, pol := range harness.RegisteredPolicies() {
					for _, p := range []int{1, m.Top.Cores()} {
						for s := int64(0); s < 2; s++ {
							plan = append(plan, run{spec: b.spec(name), pol: pol, mach: m, p: p, seed: b.seed + s})
						}
					}
				}
			}
			return plan
		},
		protocol: gridService,
		warm: func(b *bench) gridRequest {
			return gridRequest{
				Benches: serviceBenches, Topologies: b.w.machines, Policies: sched.Names(),
				Workers: []int{1, b.machines[0].Top.Cores()}, Seeds: []int64{b.seed, b.seed + 1},
				Scale: "small",
			}
		},
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return names
}

func paperGrid(ctx context.Context, b *bench, plan []run, path string, o *outcome) ([]string, error) {
	jw, err := journal.Create(path)
	if err != nil {
		return nil, err
	}
	specs := make([]workloads.Spec, len(paperNine))
	for i, name := range paperNine {
		specs[i] = b.spec(name)
	}
	m := b.machines[0]
	rows, err := harness.MeasureAll(ctx, specs, harness.Options{
		Topology: m.Top, P: m.Top.Cores(), Seed: b.seed, Seeds: 2,
		Verify: true, Jobs: 1, Journal: jw,
	})
	if cerr := jw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if r.Err != nil {
			o.problem("paper-grid row %s failed: %v", r.Name, r.Err)
		}
	}
	return nil, nil
}

func spawnTournament(ctx context.Context, b *bench, plan []run, path string, o *outcome) ([]string, error) {
	st, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	specs := make([]workloads.Spec, len(spawnOnly))
	for i, name := range spawnOnly {
		specs[i] = b.spec(name)
	}
	// A failed run aborts the tournament but leaves no record, so the
	// pass counts it (and every cell not reached) as failed.
	t, err := harness.Tournament(ctx, specs, b.machines, harness.RegisteredPolicies(), st,
		harness.Options{Seed: b.seed, Seeds: 1, Verify: true, Jobs: 1})
	if err != nil {
		o.problem("tournament: %v", err)
	}
	for _, sp := range specs {
		for _, m := range b.machines {
			opt := harness.Options{Topology: m.Top, P: 1, Seed: b.seed, Verify: true, Jobs: 1}
			if _, _, err := harness.ExecuteThrough(ctx, st, sp, sched.NUMAWS, opt, false); err != nil {
				o.problem("one-worker reference: %v", err)
			}
		}
	}
	ranking := make([]string, len(t.Entries))
	for i, e := range t.Entries {
		ranking[i] = e.Policy
	}
	return ranking, st.Close()
}

// gridService points the HTTP server at a sweep server over a fresh store
// and POSTs the workload's grid cold: every run must simulate.
func gridService(ctx context.Context, b *bench, plan []run, path string, o *outcome) ([]string, error) {
	if _, err := b.serveStore(path); err != nil {
		return nil, err
	}
	body, err := json.Marshal(b.w.warm(b))
	if err != nil {
		return nil, err
	}
	resp := b.post(ctx, body)
	want := make(map[string]journal.Result, len(plan))
	for _, r := range plan {
		want[r.id()] = journal.Result{}
	}
	if bad := resp.check(want, false); bad != "" {
		o.problem("cold grid: %s", bad)
	}
	if resp.done != nil && resp.done.Simulated != len(plan) {
		o.problem("cold grid simulated %d of %d runs", resp.done.Simulated, len(plan))
	}
	b.cold = resp.rows
	return nil, nil
}

// numawsSummary computes the simulated end-to-end metrics from one pass:
// the geomean over (benchmark, machine) cells of NUMA-WS T_P (mean over
// seeds) and of NUMA-WS work inflation W_P/T1, where T1 is the NUMA-WS
// one-worker time of the same cell.
func numawsSummary(plan []run, p *passOut) (tp, inflation float64, err error) {
	type cell struct{ bench, mach string }
	type sums struct {
		tp, work, t1 float64
		n, n1        int
	}
	cells := map[cell]*sums{}
	var order []cell
	for i, r := range plan {
		if r.serial() || r.pol.Name() != sched.NUMAWS.Name() || !p.ok[i] {
			continue
		}
		k := cell{r.spec.Name, r.mach.Name}
		s := cells[k]
		if s == nil {
			s = &sums{}
			cells[k] = s
			order = append(order, k)
		}
		res := p.results[i]
		if r.p == 1 {
			s.t1 += float64(res.Time)
			s.n1++
		} else {
			s.tp += float64(res.Time)
			s.work += float64(res.Work)
			s.n++
		}
	}
	var tps, infl []float64
	for _, k := range order {
		s := cells[k]
		if s.n == 0 || s.n1 == 0 {
			return 0, 0, fmt.Errorf("cell %v lacks NUMA-WS P-worker or one-worker runs", k)
		}
		tps = append(tps, s.tp/float64(s.n))
		infl = append(infl, (s.work/float64(s.n))/(s.t1/float64(s.n1)))
	}
	return geomean(tps), geomean(infl), nil
}
