// Package lockguard checks the region-locking protocol of §3.3: every
// locking.Guard produced by RegionLocker.Acquire (or a wrapper returning
// one, like LockContext.acquire) must be released on every path out of
// the function that owns it, and no second Acquire may happen while a
// guard is held — the leaf-ordered deadlock-freedom argument only covers
// one acquisition at a time per thread. It also enforces the guarded
// areanode discipline: a function that carries a *LockContext is part of
// a concurrent exec path and must use the Guarded link/unlink variants,
// never the bare ones (unless the function is explicitly annotated
// //qvet:phase=physics, the master-only lock-free phase).
//
// The guard rules run on core.Flow, the shared path-sensitive
// interpreter: branches fork the tracked-guard state, reachable exits
// union it, and loop bodies are interpreted twice so a guard carried
// across the back edge trips the second-acquire rule. Passing or
// returning a guard value transfers ownership to the receiver and ends
// tracking (Release inside deferred closures is recognized). Paths that
// end in panic are exempt: the engine's recovery handler calls
// ReleaseAll.
package lockguard

import (
	"go/ast"
	"go/token"
	"go/types"

	"qserve/tools/qvet/internal/core"
)

// Analyzer is the lockguard check.
var Analyzer = &core.Analyzer{
	Name: "lockguard",
	Doc:  "locking.Guard released on all paths, no nested Acquire, guarded areanode links under a LockContext",
	Run:  run,
}

func run(pass *core.Pass) error {
	c := &checker{pass: pass}
	c.flow = core.Flow[*state]{Expr: c.expr, Assign: c.assign, Defer: c.deferCall, Exit: c.exit}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.flow.Run(fd.Body, newState())
				c.checkGuardedLinks(fd)
			}
		}
		// Function literals are separate ownership scopes: a guard
		// acquired inside a closure must be released inside it (or
		// escape); the enclosing function's interpretation skips them.
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.flow.Run(lit.Body, newState())
			}
			return true
		})
	}
	return nil
}

// state is the abstract guard state on one path: held maps a guard var
// to its acquire position while the release is still owed; defr holds
// guards whose Release is deferred (no longer leakable, but still locked
// until the function returns, so they count for the second-acquire
// rule).
type state struct {
	held map[*types.Var]token.Pos
	defr map[*types.Var]token.Pos
}

func newState() *state {
	return &state{held: map[*types.Var]token.Pos{}, defr: map[*types.Var]token.Pos{}}
}

func (s *state) Clone() *state {
	n := newState()
	n.Join(s)
	return n
}

func (s *state) Join(o *state) {
	for v, p := range o.held {
		s.held[v] = p
	}
	for v, p := range o.defr {
		if _, held := s.held[v]; !held {
			s.defr[v] = p
		}
	}
}

func (s *state) tracked(v *types.Var) bool {
	_, h := s.held[v]
	_, d := s.defr[v]
	return h || d
}

func (s *state) drop(v *types.Var) {
	delete(s.held, v)
	delete(s.defr, v)
}

type checker struct {
	pass *core.Pass
	flow core.Flow[*state]
}

// exit fires the leak rule on a path leaving the function.
func (c *checker) exit(st *state, at token.Pos, isReturn bool) {
	where := "the end of the function"
	if isReturn {
		where = "the return"
	}
	line := c.pass.Prog.Fset.Position(at).Line
	for v, p := range st.held {
		c.pass.Reportf(p, "guard %q acquired here is not released on the path reaching %s (line %d); release it on all paths or use defer", v.Name(), where, line)
	}
}

// heldCheck fires the second-acquire rule at an Acquire call site.
func (c *checker) heldCheck(pos token.Pos, st *state) {
	for v, p := range st.held {
		c.pass.Reportf(pos, "Acquire while guard %q (acquired at %s) is still held; leaf-ordered locking forbids nested region acquisition", v.Name(), c.pass.Prog.Fset.Position(p))
		return
	}
	for v, p := range st.defr {
		c.pass.Reportf(pos, "Acquire while guard %q (acquired at %s) has only a deferred release and is still locked; leaf-ordered locking forbids nested region acquisition", v.Name(), c.pass.Prog.Fset.Position(p))
		return
	}
}

// assign tracks guards produced by acquire calls assigned to plain
// variables; a guard stored into a field or element is owned elsewhere.
func (c *checker) assign(st *state, lhs, rhs []ast.Expr) {
	if len(lhs) != len(rhs) {
		return
	}
	for i, r := range rhs {
		call, ok := ast.Unparen(r).(*ast.CallExpr)
		id, isIdent := lhs[i].(*ast.Ident)
		switch {
		case !ok || !c.isAcquire(call):
			// Overwriting a tracked var ends tracking of the old value.
			if v := c.varOf(id); v != nil {
				st.drop(v)
			}
		case isIdent && id.Name == "_":
			c.pass.Reportf(call.Pos(), "Acquire result discarded into _; the guard must be stored and released")
		case isIdent:
			if v := c.varOf(id); v != nil {
				st.held[v] = call.Pos()
			}
		}
	}
}

// deferCall turns the Release of a held guard into a deferred release;
// any other deferred call is evaluated like an ordinary one.
func (c *checker) deferCall(st *state, call *ast.CallExpr) {
	if v := c.releaseTarget(call); v != nil {
		if p, ok := st.held[v]; ok {
			delete(st.held, v)
			st.defr[v] = p
		}
		return
	}
	c.expr(st, call, false)
}

// expr scans an expression for guard events: Release calls, Acquire
// calls in non-assigned positions (second-acquire rule; ownership goes
// to the consuming expression), and uses of tracked guards that transfer
// ownership out of this function (call arguments, composite literals,
// address-taking). Selector access on a guard (g.Release, g.Covers) is
// not a transfer. Function literals are separate scopes and are skipped.
func (c *checker) expr(st *state, e ast.Expr, discarded bool) {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && discarded && c.isAcquire(call) {
		c.pass.Reportf(call.Pos(), "Acquire result discarded; the guard must be stored and released")
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if v := c.releaseTarget(n); v != nil {
				st.drop(v)
				return false
			}
			if c.isAcquire(n) {
				c.heldCheck(n.Pos(), st)
			}
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				if v := c.varOf(id); v != nil && st.tracked(v) {
					return false
				}
			}
		case *ast.Ident:
			if v := c.varOf(n); v != nil && st.tracked(v) {
				st.drop(v) // ownership transferred out
			}
		}
		return true
	})
}

// releaseTarget returns the guard variable when call is g.Release() on a
// tracked-typed variable.
func (c *checker) releaseTarget(call *ast.CallExpr) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	v := c.varOf(id)
	if v == nil || !core.IsGuardType(v.Type()) {
		return nil
	}
	return v
}

// isAcquire reports whether the call produces a locking.Guard value.
// Matching on the result type (rather than the method name) covers both
// RegionLocker.Acquire and wrappers like LockContext.acquire.
func (c *checker) isAcquire(call *ast.CallExpr) bool {
	tv, ok := c.pass.Info.Types[call]
	return ok && core.IsGuardType(tv.Type)
}

// varOf resolves an identifier to the variable it uses or defines; a
// nil identifier (assign's non-identifier left-hand side) resolves to
// nil.
func (c *checker) varOf(id *ast.Ident) *types.Var {
	if obj := c.pass.Info.Uses[id]; obj != nil {
		v, _ := obj.(*types.Var)
		return v
	}
	v, _ := c.pass.Info.Defs[id].(*types.Var)
	return v
}
