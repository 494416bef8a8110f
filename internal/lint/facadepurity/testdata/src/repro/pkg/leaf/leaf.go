// Package leaf impersonates a public data package beside the facade. The
// facade may alias its types without re-walking them, so its own exported
// surface is held to the same rule.
package leaf

import "repro/internal/engine"

// Clean keeps its internal machinery unexported.
type Clean struct {
	Bench string
	raw   *engine.Report // unexported: allowed
}

// Leaky would slip through the facade as an alias if only the facade
// were checked.
type Leaky struct {
	Raw *engine.Report // want `type Leaky field Raw leaks internal type engine\.Report`
}
