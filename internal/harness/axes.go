package harness

// The grid axes' resolvers. Every rule that turns a front door's names and
// numbers — benchmarks, machines, policies, workers, seeds, scale — into
// engine values lives here, once: the sweep service and the pkg/numaws
// facade (and through it the CLI) call these, so an input one front door
// rejects, every front door rejects, with the same message. Each resolver
// preserves the order it was given.

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/sched"
	"repro/internal/topology"
)

// scales maps each accepted scale name to its Scale, in listing order.
var scales = []struct {
	name string
	sc   Scale
}{{"small", ScaleSmall}, {"full", ScaleFull}}

// ScaleNames lists the accepted scale names.
func ScaleNames() []string {
	out := make([]string, len(scales))
	for i, s := range scales {
		out[i] = s.name
	}
	return out
}

// ParseScale resolves a scale name: "small" or "full".
func ParseScale(name string) (Scale, error) {
	for _, s := range scales {
		if s.name == name {
			return s.sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (want %s)", name, strings.Join(ScaleNames(), " or "))
}

// distinct rejects a name given twice on one axis. axis is the request
// field that names it: benches, topologies or policies.
func distinct(axis string, names []string) error {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return fmt.Errorf("duplicate %s entry %q: named twice", axis, n)
		}
		seen[n] = true
	}
	return nil
}

// SelectSpecs resolves benchmark names against a suite, rejecting unknown
// and duplicate names. No names selects the whole suite.
func SelectSpecs(all []Spec, names []string) ([]Spec, error) {
	if len(names) == 0 {
		return all, nil
	}
	if err := distinct("benches", names); err != nil {
		return nil, err
	}
	out := make([]Spec, len(names))
	for i, n := range names {
		j := slices.IndexFunc(all, func(s Spec) bool { return s.Name == n })
		if j < 0 {
			known := make([]string, len(all))
			for k, s := range all {
				known[k] = s.Name
			}
			return nil, fmt.Errorf("no benchmark named %q (want %s)", n, strings.Join(known, ", "))
		}
		out[i] = all[j]
	}
	return out, nil
}

// Machine names one topology of a grid.
type Machine struct {
	Name string
	Top  *topology.Topology
}

// Machines resolves topology specs (preset names or SxC shapes; see
// topology.Parse) into machines, rejecting unknown or duplicate names.
func Machines(specs []string) ([]Machine, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("harness: no topologies given")
	}
	if err := distinct("topologies", specs); err != nil {
		return nil, err
	}
	out := make([]Machine, len(specs))
	for i, spec := range specs {
		top, err := topology.Parse(spec)
		if err != nil {
			return nil, err
		}
		out[i] = Machine{Name: spec, Top: top}
	}
	return out, nil
}

// Policies resolves policy names against the registry, rejecting unknown
// and duplicate names.
func Policies(names []string) ([]sched.Policy, error) {
	if err := distinct("policies", names); err != nil {
		return nil, err
	}
	out := make([]sched.Policy, len(names))
	for i, n := range names {
		pol, err := sched.Lookup(n)
		if err != nil {
			return nil, err
		}
		out[i] = pol
	}
	return out, nil
}

// RegisteredPolicies resolves every registered policy, in registry (name)
// order — the tournament's default contestant list.
func RegisteredPolicies() []sched.Policy {
	pols, err := Policies(sched.Names())
	if err != nil {
		// Names and Lookup read the same registry; a miss here is a
		// registry bug, not a caller error.
		panic(err)
	}
	return pols
}

// Workers resolves a worker count on machine m: 0 means every core of the
// machine, and a negative count or one above its core count is an error.
func Workers(p int, m Machine) (int, error) {
	switch {
	case p < 0:
		return 0, fmt.Errorf("negative worker count %d", p)
	case p == 0:
		return m.Top.Cores(), nil
	case p > m.Top.Cores():
		return 0, fmt.Errorf("%d workers out of range [1,%d] for topology %s", p, m.Top.Cores(), m.Name)
	}
	return p, nil
}

// CheckSeed rejects seed 0, which the engine reserves as "the default".
func CheckSeed(seed int64) error {
	if seed == 0 {
		return fmt.Errorf("seed 0 is reserved as the engine's default; pass an explicit non-zero seed")
	}
	return nil
}
