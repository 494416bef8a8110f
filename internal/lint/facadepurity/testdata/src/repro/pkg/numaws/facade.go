// Package numaws impersonates the facade. Internal types may flow
// through unexported fields and function bodies; any godoc-visible
// appearance is a leak.
package numaws

import (
	"repro/internal/engine"
	"repro/pkg/leaf"
)

// Row is a clean exported type: internal machinery hides in unexported
// fields.
type Row struct {
	Bench  string
	Cycles int64
	raw    *engine.Report // unexported: allowed, that is the point of a facade
}

// Run is a clean exported function: internal types appear only in its
// body.
func Run(bench string) (Row, error) {
	rep := engine.Run()
	return Row{Bench: bench, Cycles: rep.Cycles}, nil
}

// Leaky surfaces, one per godoc-visible position.

func RunRaw(bench string) *engine.Report { // want `func RunRaw leaks internal type engine\.Report`
	return engine.Run()
}

func Apply(p engine.Policy) {} // want `func Apply leaks internal type engine\.Policy`

type Result struct {
	Raw *engine.Report // want `type Result field Raw leaks internal type engine\.Report`
}

type Embedding struct {
	engine.Report // want `type Embedding field Report leaks internal type engine\.Report`
}

type Runner interface {
	RunRaw() *engine.Report // want `type Runner method RunRaw leaks internal type engine\.Report`
}

type ReportAlias = engine.Report // want `type ReportAlias leaks internal type engine\.Report`

var Default *engine.Report // want `var/const Default leaks internal type engine\.Report`

// Methods on exported types are godoc-visible too.

func (r Row) Raw() *engine.Report { return r.raw } // want `type Row method Raw leaks internal type engine\.Report`

// Deep structure is traversed: a leak hiding in a map value is still a
// leak.

func Curves() map[string][]engine.Report { return nil } // want `func Curves leaks internal type engine\.Report`

// Aliases of public types are checked where those types are declared
// (see repro/pkg/leaf), not here.

type CleanAlias = leaf.Clean

type LeakyAlias = leaf.Leaky
