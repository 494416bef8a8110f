package server

// The sweep service's request expansion. The JSON contract itself, the
// request, row and summary types, lives in the public leaf package
// repro/pkg/numaws/api; this file adds only the stream's envelope and the
// validated run list a request expands to.

import (
	"fmt"
	"strings"

	"repro/internal/harness"
	"repro/internal/sched"
	"repro/internal/topology"
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
	topoName  string
	top       *topology.Topology
	pol       sched.Policy // nil for serial rows
	polName   string       // "serial" for serial rows
	p         int
	seed      int64
	serial    bool
	scaleName string
	verify    bool
}

// expand validates a request the way the CLI validates its flags — every
// unknown name is an error listing the accepted ones, never a silent
// default — and expands the axes into the grid's run list: bench-major,
// then topology, the serial row first, then policy × workers × seeds. The
// grid's size is checked against the server's limit before any run is
// built, so an oversized request costs no more than its own decoding.
func (s *Server) expand(req api.GridRequest) ([]runSpec, error) {
	scaleName := req.Scale
	if scaleName == "" {
		scaleName = api.DefaultScale
	}
	var sc harness.Scale
	switch scaleName {
	case "full":
		sc = harness.ScaleFull
	case "small":
		sc = harness.ScaleSmall
	default:
		return nil, fmt.Errorf("unknown scale %q (want small or full)", req.Scale)
	}
	verify := true
	if req.Verify != nil {
		verify = *req.Verify
	}
	all := harness.Specs(sc)
	specs := all
	if len(req.Benches) > 0 {
		byName := make(map[string]harness.Spec, len(all))
		known := make([]string, 0, len(all))
		for _, sp := range all {
			byName[sp.Name] = sp
			known = append(known, sp.Name)
		}
		specs = make([]harness.Spec, 0, len(req.Benches))
		for _, n := range req.Benches {
			sp, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("no benchmark named %q (want %s)", n, strings.Join(known, ", "))
			}
			specs = append(specs, sp)
		}
	}
	topoSpecs := req.Topologies
	if len(topoSpecs) == 0 {
		topoSpecs = []string{api.DefaultTopology}
	}
	type machine struct {
		name string
		top  *topology.Topology
	}
	machines := make([]machine, 0, len(topoSpecs))
	for _, t := range topoSpecs {
		top, err := topology.Parse(t)
		if err != nil {
			return nil, err
		}
		machines = append(machines, machine{name: t, top: top})
	}
	polNames := req.Policies
	if len(polNames) == 0 {
		polNames = []string{api.DefaultPolicy}
	}
	pols := make([]sched.Policy, 0, len(polNames))
	for _, n := range polNames {
		pol, err := sched.Lookup(n)
		if err != nil {
			return nil, err
		}
		pols = append(pols, pol)
	}
	workers := req.Workers
	if len(workers) == 0 {
		workers = []int{api.DefaultWorkers}
	}
	for _, m := range machines {
		for _, p := range workers {
			if p < 0 {
				return nil, fmt.Errorf("negative worker count %d", p)
			}
			if p > m.top.Cores() {
				return nil, fmt.Errorf("%d workers out of range [1,%d] for topology %s",
					p, m.top.Cores(), m.name)
			}
		}
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []int64{api.DefaultSeed}
	}
	for _, sd := range seeds {
		if sd == 0 {
			return nil, fmt.Errorf("seed 0 is reserved as the engine's default; pass an explicit non-zero seed")
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
	var runs []runSpec
	for _, sp := range specs {
		for _, m := range machines {
			if req.Serial {
				runs = append(runs, runSpec{
					spec: sp, topoName: m.name, top: m.top,
					polName: "serial", p: 1, seed: seeds[0], serial: true,
					scaleName: scaleName, verify: verify,
				})
			}
			for _, pol := range pols {
				for _, p := range workers {
					if p == 0 {
						p = m.top.Cores()
					}
					for _, sd := range seeds {
						runs = append(runs, runSpec{
							spec: sp, topoName: m.name, top: m.top,
							pol: pol, polName: pol.Name(), p: p, seed: sd,
							scaleName: scaleName, verify: verify,
						})
					}
				}
			}
		}
	}
	return runs, nil
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
