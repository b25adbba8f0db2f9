// Package analysis registers the repository's static-invariant analyzers.
// cmd/sdg-lint runs them all; each one also has its own analysistest-style
// suite under its package's testdata directory.
package analysis

import (
	"repro/internal/analysis/anz"
	"repro/internal/analysis/borrowcopy"
	"repro/internal/analysis/clockassert"
	"repro/internal/analysis/lockorder"
)

// All returns every registered analyzer, in stable order.
func All() []*anz.Analyzer {
	return []*anz.Analyzer{
		borrowcopy.Analyzer,
		clockassert.Analyzer,
		lockorder.Analyzer,
	}
}
