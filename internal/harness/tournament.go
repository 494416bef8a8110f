package harness

// The policy tournament: every given policy runs the same benchmark x
// topology grid and the policies are ranked by metrics.NewTournament's
// normalized-geomean score. Each cell runs at the machine's full core
// count (the canonical whole-machine comparison; a fixed P would bias the
// grid toward machines it happens to fit) and is averaged over opt.Seeds
// scheduler seeds through the same fan-out as MeasureTopologies (meanTP).
// Runs go through the optional ResultCache — the same journal-keyed
// store the sweep service executes through — so a repeated tournament
// over a warm store simulates nothing.

import (
	"context"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/pkg/numaws/api"
)

// Tournament runs pols over the specs x machines grid and ranks them.
// cache may be nil (every cell simulates). Any cell's failure — including
// a contained *RunError — aborts the tournament: a ranking with missing
// cells would silently compare incomparables. Cancelling ctx skips every
// simulation not yet started and returns the context's error.
func Tournament(ctx context.Context, specs []Spec, machines []Machine, pols []sched.Policy, cache ResultCache, opt Options) (api.Tournament, error) {
	opt = opt.fill()
	if len(pols) == 0 {
		return api.Tournament{}, fmt.Errorf("harness: tournament needs at least one policy")
	}
	if len(specs) == 0 {
		return api.Tournament{}, fmt.Errorf("harness: tournament needs at least one benchmark")
	}
	if len(machines) == 0 {
		return api.Tournament{}, fmt.Errorf("harness: tournament needs at least one machine")
	}
	names := make([]string, len(pols))
	for i, pol := range pols {
		names[i] = pol.Name()
	}
	if err := distinct("policies", names); err != nil {
		return api.Tournament{}, err
	}
	var cells []cell
	var raw []metrics.RawCell
	for _, pol := range pols {
		for _, spec := range specs {
			for _, mach := range machines {
				cells = append(cells, cell{spec: spec, pol: pol, top: mach.Top, p: mach.Top.Cores()})
				raw = append(raw, metrics.RawCell{Policy: pol.Name(), Bench: spec.Name, Topology: mach.Name})
			}
		}
	}
	tp, err := meanTP(ctx, cells, cache, opt)
	if err != nil {
		return api.Tournament{}, err
	}
	for k := range raw {
		raw[k].TP = tp[k]
	}
	return metrics.NewTournament(raw)
}
