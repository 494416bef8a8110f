package facadepurity_test

import (
	"testing"

	"repro/internal/lint/facadepurity"
	"repro/internal/lint/lintest"
)

func TestFacadePurity(t *testing.T) {
	lintest.Run(t, "testdata", facadepurity.Analyzer,
		"repro/pkg/numaws",      // exported-surface leaks
		"repro/pkg/leaf",        // a public leaf is checked too
		"repro/cmd/badtool",     // internal import from a binary
		"repro/examples/clean",  // facade-only example: silent
		"repro/cmd/lintwiring",  // lint infrastructure import: exempt
		"repro/internal/engine", // internal package itself: out of scope
	)
}
