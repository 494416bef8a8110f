package server

// The sweep service's request expansion. The JSON contract itself, the
// request, row and summary types, lives in the public leaf package
// repro/pkg/numaws/api; this file adds only the stream's envelope and the
// validated run list a request expands to.

import (
	"cmp"
	"fmt"

	"repro/internal/harness"
	"repro/internal/sched"
	"repro/pkg/numaws/api"
)

// event is one NDJSON line of a grid or tournament stream: exactly one
// field is set. Done holds an *api.GridSummary or an
// *api.TournamentSummary.
type event struct {
	Row  *api.GridRow `json:"row,omitempty"`
	Done any          `json:"done,omitempty"`
}

// runSpec is one expanded grid cell, validated and resolved.
type runSpec struct {
	spec      harness.Spec
	machine   harness.Machine
	pol       sched.Policy // nil for serial rows
	polName   string       // "serial" for serial rows
	p         int
	seed      int64
	serial    bool
	scaleName string
	verify    bool
}

// expand validates a request through the harness's axis resolvers — every
// unknown or repeated name is an error, never a silent default — and
// expands the axes into the grid's run list: bench-major, then topology,
// the serial row first, then policy × workers × seeds. The grid's size is
// checked against the server's limit before any run is built, so an
// oversized request costs no more than its own decoding.
func (s *Server) expand(req api.GridRequest) ([]runSpec, error) {
	scaleName := cmp.Or(req.Scale, api.DefaultScale)
	sc, err := harness.ParseScale(scaleName)
	if err != nil {
		return nil, err
	}
	specs, err := harness.SelectSpecs(harness.Specs(sc), req.Benches)
	if err != nil {
		return nil, err
	}
	machines, err := harness.Machines(orDefault(req.Topologies, api.DefaultTopology))
	if err != nil {
		return nil, err
	}
	pols, err := harness.Policies(orDefault(req.Policies, api.DefaultPolicy))
	if err != nil {
		return nil, err
	}
	workers := orDefault(req.Workers, api.DefaultWorkers)
	for _, m := range machines {
		for _, p := range workers {
			if _, err := harness.Workers(p, m); err != nil {
				return nil, err
			}
		}
	}
	seeds := orDefault(req.Seeds, api.DefaultSeed)
	for _, sd := range seeds {
		if err := harness.CheckSeed(sd); err != nil {
			return nil, err
		}
	}
	// The per-machine count is used only once its product is known to fit.
	perMachine := len(pols) * len(workers) * len(seeds)
	if req.Serial {
		perMachine++
	}
	if !fits(s.maxRuns, len(pols), len(workers), len(seeds)) ||
		!fits(s.maxRuns, len(specs), len(machines), perMachine) {
		return nil, fmt.Errorf("grid exceeds this server's limit of %d runs; split the request", s.maxRuns)
	}
	verify := req.Verify == nil || *req.Verify
	var runs []runSpec
	for _, sp := range specs {
		for _, m := range machines {
			if req.Serial {
				runs = append(runs, runSpec{
					spec: sp, machine: m, polName: "serial", p: 1, seed: seeds[0], serial: true,
					scaleName: scaleName, verify: verify,
				})
			}
			for _, pol := range pols {
				for _, p := range workers {
					p, _ = harness.Workers(p, m) // validated above
					for _, sd := range seeds {
						runs = append(runs, runSpec{
							spec: sp, machine: m, pol: pol, polName: pol.Name(), p: p, seed: sd,
							scaleName: scaleName, verify: verify,
						})
					}
				}
			}
		}
	}
	return runs, nil
}

// orDefault is vals, or the axis default when the request left it empty.
func orDefault[T any](vals []T, def T) []T {
	if len(vals) == 0 {
		return []T{def}
	}
	return vals
}

// fits reports whether the product of the axis lengths is at most limit,
// stopping before any partial product could overflow.
func fits(limit int, lens ...int) bool {
	n := 1
	for _, l := range lens {
		if l > 0 && n > limit/l {
			return false
		}
		n *= l
	}
	return true
}
