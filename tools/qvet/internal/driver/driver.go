// Package driver implements the qvet command: flag parsing, package
// loading, analyzer execution, and diagnostic printing. It lives behind
// main so the smoke test can invoke the whole pipeline in-process.
package driver

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"qserve/tools/qvet/internal/checks"
	"qserve/tools/qvet/internal/core"
	"qserve/tools/qvet/internal/load"
)

// Main runs qvet with the given arguments (excluding argv[0]) and
// returns the process exit code: 0 clean, 1 findings, 2 usage or
// load/internal error.
func Main(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "run as if launched from this directory")
	only := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := fs.Bool("list", false, "list available checks and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array instead of file:line text")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: qvet [-C dir] [-checks name,...] [-json] [packages]\n\nChecks qserve's concurrency and hot-path invariants (see DESIGN.md §9).\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	suite := checks.All()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*core.Analyzer)
		for _, a := range suite {
			byName[a.Name] = a
		}
		suite = suite[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "qvet: unknown check %q\n", name)
				return 2
			}
			suite = append(suite, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := load.Load(*dir, patterns, checks.ValidChecks())
	if err != nil {
		fmt.Fprintf(stderr, "qvet: %v\n", err)
		return 2
	}
	diags, err := core.RunAnalyzers(prog, suite)
	if err != nil {
		fmt.Fprintf(stderr, "qvet: %v\n", err)
		return 2
	}
	// Annotation-rot problems are appended unfiltered: a broken
	// directive must not be able to allow itself away. The final order
	// is (file, line, check, column, message) — fully deterministic so
	// CI diffs never churn with package-load order.
	diags = append(diags, prog.Annots.Problems...)
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})

	relFile := func(file string) string {
		if rel, err := filepath.Rel(prog.Dir, file); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
		return file
	}
	if *asJSON {
		type finding struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Column  int    `json:"column"`
			Check   string `json:"check"`
			Message string `json:"message"`
		}
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{relFile(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "qvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relFile(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
