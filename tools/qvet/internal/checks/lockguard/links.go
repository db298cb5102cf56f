package lockguard

import (
	"go/ast"
	"go/types"

	"qserve/tools/qvet/internal/core"
)

// checkGuardedLinks enforces the guarded areanode discipline: any
// function that carries a *LockContext (parameter or receiver) runs on a
// concurrent exec path — move, combat, teleport — and must therefore use
// the Guarded variants of areanode linking. Bare areanode.Tree
// Link/Unlink calls, and the engine's lowercase link/unlink wrappers
// around them, mutate the tree without parent guards and are only legal
// in the master-only physics phase, so functions annotated
// //qvet:phase=physics are exempt.
func (c *checker) checkGuardedLinks(fd *ast.FuncDecl) {
	if !c.carriesLockContext(fd) {
		return
	}
	if a := c.pass.Prog.Annots.FuncOf(fd); a != nil && a.Phase == core.PhasePhysics {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Link", "Unlink":
			if c.recvFromAreanode(sel) {
				c.pass.Reportf(call.Pos(), "bare areanode.%s in a LockContext-carrying function; use %sGuarded with the context's parent guard", sel.Sel.Name, sel.Sel.Name)
			}
		case "link", "unlink":
			c.pass.Reportf(call.Pos(), "unguarded %s in a LockContext-carrying function; use %sGuarded", sel.Sel.Name, sel.Sel.Name)
		}
		return true
	})
}

// carriesLockContext reports whether the function's receiver or any
// parameter is a (pointer to) named type LockContext. Matching by type
// name keeps the rule fixture-friendly, mirroring isGuardType.
func (c *checker) carriesLockContext(fd *ast.FuncDecl) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			tv, ok := c.pass.Info.Types[f.Type]
			if !ok {
				continue
			}
			t := tv.Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Name() == "LockContext" {
				return true
			}
		}
		return false
	}
	return check(fd.Recv) || check(fd.Type.Params)
}

// recvFromAreanode reports whether the method's receiver type is
// declared in a package named "areanode".
func (c *checker) recvFromAreanode(sel *ast.SelectorExpr) bool {
	s, ok := c.pass.Info.Selections[sel]
	if !ok {
		return false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Name() == "areanode"
}
