// Command qvet runs qserve's custom static-analysis suite: the
// machine-checked form of the engine's concurrency invariants
// (region-lock protocol, barrier-phase discipline, determinism closures,
// the steal-hint protocol, annotation rot). See DESIGN.md §9 for the
// rules and annotation grammar.
//
// Usage:
//
//	qvet [-C dir] [-checks lockguard,phasecheck] [-json] [packages]
//
// Exit status: 0 clean, 1 findings, 2 error.
package main

import (
	"os"

	"qserve/tools/qvet/internal/driver"
)

func main() {
	os.Exit(driver.Main(os.Args[1:], os.Stdout, os.Stderr))
}
