// Package noalloc gives the benchmark allocation gates a static
// counterpart: a function annotated //qvet:noalloc must produce no heap
// escapes — neither in its own body nor in any function it statically
// reaches — according to the gc compiler's escape analysis
// (go build -gcflags=-m). Where BenchmarkReplyPhaseAllocs can only say
// "1 alloc/op appeared", this check names the escaping line the moment
// it is written.
//
// Rules:
//   - Escape verdicts inside the annotated function's line range are
//     reported at the escaping line.
//   - The check is transitive over the static call graph through
//     unannotated helpers; a callee that is itself //qvet:noalloc is
//     trusted (its own check covers it).
//   - //qvet:allow=noalloc on the escaping line (with a reason) exempts
//     a site everywhere — used for provable warm-up-only growth such as
//     pool resizing.
//   - Calls into the standard library produce no edges; their internal
//     allocations are invisible, but argument boxing at the call site
//     (the usual cost, e.g. log.Printf operands) is reported in the
//     caller by -m and therefore caught.
//   - Slice append growth is not reported by -m (backing arrays are
//     amortized pool state), which matches the engine's pooled-buffer
//     design: steady-state zero-alloc with high-water reuse.
package noalloc

import (
	"fmt"
	"go/token"

	"qserve/tools/qvet/internal/core"
)

// Analyzer is the noalloc check.
var Analyzer = &core.Analyzer{
	Name:        "noalloc",
	Doc:         "//qvet:noalloc functions have no heap escapes, transitively over static calls",
	NeedEscapes: true,
	RunProgram:  runProgram,
}

type site struct {
	fi   *core.FuncInfo
	line int
	msg  string
}

func runProgram(prog *core.Program, report core.Reporter) error {
	if prog.Escapes == nil {
		return fmt.Errorf("escape index not loaded")
	}
	g := prog.EnsureGraph()
	direct := make(map[string][]site)

	var roots []*core.FuncInfo
	for _, fi := range g.Funcs {
		if fi.Annot != nil && fi.Annot.NoAlloc {
			roots = append(roots, fi)
		}
	}
	// Own-body escapes are reported against the root; the transitive
	// closure runs through unannotated callees, trusting annotated ones
	// (each has its own check).
	stop := func(_, callee *core.FuncInfo) bool { return callee.Annot != nil && callee.Annot.NoAlloc }
	g.Walk(roots, false, stop, func(chain []*core.FuncInfo) {
		root, fi := chain[0], chain[len(chain)-1]
		for _, s := range directSites(prog, g, fi.Key, direct) {
			if fi == root {
				report(posOnLine(prog, s), "heap escape in //qvet:noalloc function %s: %s", root.Name, s.msg)
			} else {
				report(posOnLine(prog, s), "heap escape reached from //qvet:noalloc function %s%s in %s: %s", root.Name, core.Via(chain[1:len(chain)-1]), fi.Name, s.msg)
			}
		}
	})
	return nil
}

// directSites returns the unsuppressed escape verdicts inside one
// function's body, memoized. Allow filtering happens here, at the site,
// so an exempted line stops counting for every transitive root as well.
func directSites(prog *core.Program, g *core.Graph, key string, direct map[string][]site) []site {
	if s, ok := direct[key]; ok {
		return s
	}
	fi := g.Funcs[key]
	sites := []site{}
	if lines := prog.Escapes.ByFile[fi.File]; lines != nil {
		for line := fi.StartLine; line <= fi.EndLine; line++ {
			for _, msg := range lines[line] {
				if prog.Annots.Allowed("noalloc", token.Position{Filename: fi.File, Line: line}) {
					continue
				}
				sites = append(sites, site{fi: fi, line: line, msg: msg})
			}
		}
	}
	direct[key] = sites
	return sites
}

// posOnLine maps a site back to a token.Pos on its line so the standard
// reporting (and its allow filter) can resolve it. The declaration
// file's token.File gives line starts.
func posOnLine(prog *core.Program, s site) token.Pos {
	tf := prog.Fset.File(s.fi.Decl.Pos())
	if tf == nil || s.line > tf.LineCount() {
		return s.fi.Decl.Pos()
	}
	return tf.LineStart(s.line)
}
