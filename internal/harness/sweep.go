package harness

// The topology-sweep experiment surface: the Fig. 9 scalability protocol
// run across a grid of machine shapes instead of only the paper's 4x8
// machine. Every (machine, spec, point, seed) run is an independent
// simulation fanned out over the internal/exec pool, aggregated in
// canonical order so output is byte-identical for every Jobs value.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/pkg/numaws/api"
)

// SweepPoints derives a machine's worker-count axis the way Fig. 9 chose the
// paper machine's {1, 8, 16, 24, 32}: one worker, then the quarter points of
// the whole machine. Machines too small for distinct quarters degenerate
// gracefully (duplicates collapse).
func SweepPoints(top *topology.Topology) []int {
	c := top.Cores()
	pts := []int{1}
	for _, q := range []int{c / 4, c / 2, 3 * c / 4, c} {
		if q > pts[len(pts)-1] {
			pts = append(pts, q)
		}
	}
	return pts
}

// machinePoints fixes the point axis for one machine: the explicit points
// clipped to the machine (deduplicated, ascending, 1 always present so
// Speedup has its T1 base), or SweepPoints when none were given. Clipping
// lets one -points list serve a mixed-size grid, but a machine none of the
// requested points fit is an error, not a silent one-point curve.
func machinePoints(name string, top *topology.Topology, points []int) ([]int, error) {
	if len(points) == 0 {
		return SweepPoints(top), nil
	}
	set := map[int]bool{1: true}
	fit := false
	for _, p := range points {
		if p < 1 {
			return nil, fmt.Errorf("harness: sweep point %d must be at least 1", p)
		}
		if p <= top.Cores() {
			set[p] = true
			fit = true
		}
	}
	if !fit {
		return nil, fmt.Errorf("harness: no sweep point in %v fits topology %s (%d cores)",
			points, name, top.Cores())
	}
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out, nil
}

// cell is one averaged measurement of a sweep or tournament grid: spec
// under pol on top at p workers.
type cell struct {
	spec Spec
	pol  sched.Policy
	top  *topology.Topology
	p    int
}

// meanTP runs every cell at opt.Seeds scheduler seeds (opt.Seed,
// opt.Seed+1, ...) on an opt.Jobs-worker pool, each run through
// ExecuteThrough over cache (nil simulates every run), and returns each
// cell's TP averaged over the seeds. Submission indices are cell-major and
// seed-minor, so the first failure reported is the one a serial loop
// would hit. Any failure — a contained *RunError included — aborts the
// grid; cancelling ctx skips every simulation not yet started and returns
// the context's error.
func meanTP(ctx context.Context, cells []cell, cache ResultCache, opt Options) ([]int64, error) {
	times := make([]int64, len(cells)*opt.Seeds)
	pool := exec.NewPool(ctx, opt.Jobs)
	em := newEmitter(opt.OnRun)
	for i, c := range cells {
		for sd := range opt.Seeds {
			k := i*opt.Seeds + sd
			o := opt
			o.Topology, o.P, o.Seed = c.top, c.p, opt.Seed+int64(sd)
			pool.Submit(ctx, k, func() error {
				res, _, err := ExecuteThrough(ctx, cache, c.spec, c.pol, o, false)
				if err != nil {
					return err
				}
				times[k] = res.Time
				em.emit(RunMeta{Bench: c.spec.Name, Policy: c.pol.Name(), P: o.P, Seed: o.Seed, Time: res.Time})
				return nil
			})
		}
	}
	if err := pool.Wait(ctx); err != nil {
		return nil, err
	}
	means := make([]int64, len(cells))
	for i := range cells {
		var total int64
		for _, t := range times[i*opt.Seeds : (i+1)*opt.Seeds] {
			total += t
		}
		means[i] = total / int64(opt.Seeds)
	}
	return means, nil
}

// MeasureTopologies runs the scalability protocol for every spec on every
// machine under opt.Policy: TP at each worker point, averaged over
// opt.Seeds scheduler seeds. points nil derives each machine's axis with
// SweepPoints; explicit points are clipped to each machine's core count.
// Results group by machine in the given order, one sweep per (machine,
// spec). Cancelling ctx skips every simulation not yet started and returns
// the context's error; completed runs already streamed through opt.OnRun
// remain valid.
func MeasureTopologies(ctx context.Context, specs []Spec, machines []Machine, opt Options, points []int) ([]api.SweepCurve, error) {
	opt = opt.fill()
	if len(machines) == 0 {
		return nil, fmt.Errorf("harness: no machines to sweep")
	}
	axes := make([][]int, len(machines))
	var cells []cell
	for m, mach := range machines {
		axis, err := machinePoints(mach.Name, mach.Top, points)
		if err != nil {
			return nil, err
		}
		axes[m] = axis
		for _, spec := range specs {
			for _, p := range axis {
				cells = append(cells, cell{spec: spec, pol: opt.Policy, top: mach.Top, p: p})
			}
		}
	}
	tp, err := meanTP(ctx, cells, nil, opt)
	if err != nil {
		return nil, err
	}
	out := make([]api.SweepCurve, 0, len(machines)*len(specs))
	for m, mach := range machines {
		for _, spec := range specs {
			n := len(axes[m])
			out = append(out, api.SweepCurve{
				Bench:    spec.Name,
				Topology: mach.Name,
				Sockets:  mach.Top.Sockets(),
				Cores:    mach.Top.Cores(),
				P:        axes[m],
				TP:       tp[:n:n], // capacity-limited: a caller's append cannot reach the next curve
			})
			tp = tp[n:]
		}
	}
	return out, nil
}
