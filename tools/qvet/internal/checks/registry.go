// Package checks registers the qvet analyzer suite.
package checks

import (
	"qserve/tools/qvet/internal/checks/annotcheck"
	"qserve/tools/qvet/internal/checks/detcore"
	"qserve/tools/qvet/internal/checks/lockguard"
	"qserve/tools/qvet/internal/checks/phasecheck"
	"qserve/tools/qvet/internal/checks/stealcheck"
	"qserve/tools/qvet/internal/core"
)

// All returns every analyzer in suite order.
func All() []*core.Analyzer {
	return []*core.Analyzer{
		annotcheck.Analyzer,
		lockguard.Analyzer,
		phasecheck.Analyzer,
		detcore.Analyzer,
		stealcheck.Analyzer,
	}
}

// ValidChecks is the closed set of names //qvet:allow may reference.
// The annot meta-check is excluded on purpose: allow must not be able
// to suppress annotation-rot reports. "maporder" is a pseudo-check:
// it never reports on its own; detcore consults it on map-range
// findings so the waiver vocabulary names the hazard, not the tool.
func ValidChecks() map[string]bool {
	m := map[string]bool{"maporder": true}
	for _, a := range All() {
		if a.Name == "annot" {
			continue
		}
		m[a.Name] = true
	}
	return m
}
