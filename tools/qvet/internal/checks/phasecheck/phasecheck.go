// Package phasecheck enforces the barrier-phase discipline of the
// paper's frame pipeline (§3.2): a function annotated
// //qvet:phase=reply|physics|exec must never reach — through any chain
// of unannotated helpers — a function annotated with a different phase,
// because the barriers that make each phase's memory access pattern safe
// only hold within a phase. Additionally, reply-phase code is read-only
// over world structure: it must not reach any entity.Table mutator
// (Alloc/Free and their internal helpers), since every worker reads the
// frozen table concurrently during the reply phase.
//
// Mutators are computed structurally, not by name: a method of
// entity.Table is a mutator if its body writes through the receiver
// (directly or by calling another mutator method), so new Table methods
// are classified automatically.
//
// Soundness gap (documented): the closure runs over the static call
// graph, so calls through interfaces and function values are invisible.
package phasecheck

import (
	"go/ast"
	"go/types"

	"qserve/tools/qvet/internal/core"
)

// Analyzer is the phasecheck check.
var Analyzer = &core.Analyzer{
	Name:       "phasecheck",
	Doc:        "phase-annotated functions only reach compatible phases; reply phase never reaches entity.Table mutators",
	RunProgram: runProgram,
}

func runProgram(prog *core.Program, report core.Reporter) error {
	g := prog.EnsureGraph()
	mutators := tableMutators(prog, g)
	var roots []*core.FuncInfo
	for _, fi := range g.Funcs {
		if fi.Annot != nil && fi.Annot.Phase != "" {
			roots = append(roots, fi)
		}
	}
	// Each root's closure runs through unannotated helpers, stopping at
	// annotated functions (each is its own root, so its subtree is
	// covered by its own check) and, for reply roots, at mutators (one
	// report per mutator chain; don't re-report its internals).
	stop := func(root, callee *core.FuncInfo) bool {
		return callee.Annot != nil && callee.Annot.Phase != "" || mutators[callee.Key] && root.Annot.Phase == core.PhaseReply
	}
	g.Walk(roots, false, stop, func(chain []*core.FuncInfo) {
		root, fi := chain[0], chain[len(chain)-1]
		for _, call := range fi.Calls {
			callee := g.Funcs[call.CalleeKey]
			switch {
			case callee == nil: // stdlib, interface method, or bodyless
			case mutators[callee.Key] && root.Annot.Phase == core.PhaseReply:
				report(call.Pos, "reply-phase function %s reaches entity.Table mutator %s%s; the reply phase must be read-only over the entity table", root.Name, callee.Name, core.Via(chain[1:]))
			case callee.Annot != nil && callee.Annot.Phase != "" && callee.Annot.Phase != root.Annot.Phase:
				report(call.Pos, "//qvet:phase=%s function %s reaches //qvet:phase=%s function %s%s; cross-phase calls violate the barrier discipline", root.Annot.Phase, root.Name, callee.Annot.Phase, callee.Name, core.Via(chain[1:]))
			}
		}
	})
	return nil
}

// tableMutators finds the entity package's Table type and classifies its
// methods: a method is a mutator when it assigns through the receiver or
// calls another mutator method, computed by the graph's may-fixpoint.
func tableMutators(prog *core.Program, g *core.Graph) map[string]bool {
	var entPkg *core.Package
	for _, pkg := range prog.Packages {
		if pkg.Name == "entity" {
			entPkg = pkg
			break
		}
	}
	if entPkg == nil {
		return nil
	}

	// Table methods declared in the entity package, with their receiver
	// object (nil when unnamed) for write detection.
	recvOf := make(map[string]*types.Var)
	for _, fi := range g.Funcs {
		if fi.Pkg != entPkg || fi.Decl.Recv == nil || len(fi.Decl.Recv.List) == 0 {
			continue
		}
		recvField := fi.Decl.Recv.List[0]
		tv, ok := fi.Pkg.Info.Types[recvField.Type]
		if !ok {
			continue
		}
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Name() != "Table" {
			continue
		}
		var recvObj *types.Var
		if len(recvField.Names) > 0 {
			recvObj, _ = fi.Pkg.Info.Defs[recvField.Names[0]].(*types.Var)
		}
		recvOf[fi.Key] = recvObj
	}
	return g.MayReach(func(fi *core.FuncInfo) bool {
		recv := recvOf[fi.Key]
		return recv != nil && writesThrough(fi, recv)
	}, func(fi *core.FuncInfo) bool {
		_, ok := recvOf[fi.Key]
		return ok
	})
}

// writesThrough reports whether the method body assigns to storage
// rooted at the receiver (t.f = x, t.f[i] = x, t.f++, ...). Reads that
// return interior pointers (Get) do not count: the reply rule targets
// table-structure mutation, and entity-field writes are the exec phase's
// separately-guarded business.
func writesThrough(fi *core.FuncInfo, recv *types.Var) bool {
	info := fi.Pkg.Info
	rootedAtRecv := func(e ast.Expr) bool {
		for {
			switch x := e.(type) {
			case *ast.Ident:
				return info.Uses[x] == recv
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return false
			}
		}
	}
	found := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if rootedAtRecv(lhs) {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if rootedAtRecv(n.X) {
				found = true
			}
		}
		return true
	})
	return found
}
