// Package core is a minimal, dependency-free stand-in for the parts of
// golang.org/x/tools/go/analysis that qvet needs: analyzer registration,
// a per-package pass, diagnostics, and the shared program-wide facts
// (annotation index, call graph) the checks run
// against. qvet cannot depend on x/tools because the engine repo is
// deliberately stdlib-only, so the framework is rebuilt here on
// go/ast + go/types + the go command.
package core

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Package is one type-checked target package (test files excluded).
type Package struct {
	Path  string
	Name  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the full loaded target set plus shared indexes. Graph is
// built lazily by EnsureGraph.
type Program struct {
	Dir      string // absolute module root the program was loaded from
	Fset     *token.FileSet
	Packages []*Package
	Annots   *Index
	Graph    *Graph
}

// Pass is the per-package view handed to an analyzer's Run.
type Pass struct {
	*Package
	Prog   *Program
	Check  string
	report func(Diagnostic)
}

// Reportf records a diagnostic unless a //qvet:allow=<check> comment
// covers its line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	if p.Prog.Annots.Allowed(p.Check, position) {
		return
	}
	p.report(Diagnostic{Pos: position, Check: p.Check, Message: fmt.Sprintf(format, args...)})
}

// Reporter is the sink handed to program-level analyzers. It applies the
// same //qvet:allow filtering as Pass.Reportf.
type Reporter func(pos token.Pos, format string, args ...any)

// Analyzer is one named check. Exactly one of Run (per target package)
// or RunProgram (once, whole program) must be set.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass) error
	RunProgram func(*Program, Reporter) error
}

// RunAnalyzers executes the given analyzers over the program and returns
// the combined, position-sorted, deduplicated diagnostics.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	sink := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		switch {
		case a.RunProgram != nil:
			rep := func(pos token.Pos, format string, args ...any) {
				position := prog.Fset.Position(pos)
				if prog.Annots.Allowed(a.Name, position) {
					return
				}
				sink(Diagnostic{Pos: position, Check: a.Name, Message: fmt.Sprintf(format, args...)})
			}
			if err := a.RunProgram(prog, rep); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
		case a.Run != nil:
			for _, pkg := range prog.Packages {
				pass := &Pass{Package: pkg, Prog: prog, Check: a.Name, report: sink}
				if err := a.Run(pass); err != nil {
					return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	// Dedup identical findings (Flow interprets loop bodies twice, which
	// can replay a report).
	out := diags[:0]
	var last Diagnostic
	for i, d := range diags {
		if i > 0 && d == last {
			continue
		}
		out = append(out, d)
		last = d
	}
	return out, nil
}
