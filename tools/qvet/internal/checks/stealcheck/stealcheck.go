// Package stealcheck verifies the conflict-aware stealing protocol's
// hint discipline (DESIGN.md §10). Pool scans avoid conflicting steals
// by consulting the leaf-region masks other workers publish in
// worker.activeHint while they execute a pooled request; the protocol
// is only sound if every publisher
//
//  1. publishes before the first region acquisition it performs (an
//     unpublished execution is invisible to activeRegionHints, so a
//     thief can claim a conflicting entry and park on the guard wall
//     the scheduler exists to avoid);
//  2. clears the hint (activeHint.Store(0)) on every exit path — a
//     stale nonzero mask makes every healthy worker defer against an
//     execution that no longer exists;
//  3. is panic-covered: either the publisher itself arms
//     `defer activeHint.Store(0)`, or every exec-phase caller arms one
//     before the call (the safeExecPoolEntry / execPoolEntry split in
//     the live tree), so an unwinding request cannot strand the mask.
//
// Each publishing function in the exec-phase closure (functions
// annotated //qvet:phase=exec plus everything they statically reach) is
// interpreted by core.Flow, the path-sensitive interpreter lockguard
// also runs on, tracking published/unpublished through branches, loops
// and labeled breaks. "May acquire" means a call whose result is a
// locking.Guard or a call to a function whose own closure acquires one.
//
// client.leafHint is deliberately out of scope: it is a monotonic cache
// of the last committed move's mask, read as a scan seed — staleness is
// tolerated by design, so it has no clear-on-exit discipline.
//
// Soundness gap (documented): acquisitions behind interfaces, function
// values (cfg.Hooks), and reflection are invisible, and a function that
// acquires without publishing at all is only caught when it is itself a
// publisher — the interprocedural publish context of plain helpers is
// not tracked.
package stealcheck

import (
	"go/ast"
	"go/token"

	"qserve/tools/qvet/internal/core"
)

// Analyzer is the stealcheck check.
var Analyzer = &core.Analyzer{
	Name:       "stealcheck",
	Doc:        "activeHint published before first region acquire, cleared on every exit path including panic",
	RunProgram: runProgram,
}

func runProgram(prog *core.Program, report core.Reporter) error {
	g := prog.EnsureGraph()
	var roots []*core.FuncInfo
	for _, fi := range g.Funcs {
		if fi.Annot != nil && fi.Annot.Phase == core.PhaseExec {
			roots = append(roots, fi)
		}
	}
	// scope is every function statically reachable from an exec root.
	scope := make(map[string]*core.FuncInfo)
	g.Walk(roots, true, nil, func(chain []*core.FuncInfo) {
		fi := chain[len(chain)-1]
		scope[fi.Key] = fi
	})
	// acquirers are the functions whose body, closures included, makes
	// (transitively) a call producing a locking.Guard.
	acquirers := g.MayReach(func(fi *core.FuncInfo) bool {
		found := false
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			found = found || ok && core.ProducesGuard(fi.Pkg.Info, call)
			return !found
		})
		return found
	}, nil)
	for _, fi := range scope {
		c := &checker{fi: fi, scope: scope, acquirers: acquirers, report: report}
		c.check()
	}
	return nil
}

// state is the abstract hint state at a program point. Both may-bits
// can be set after a branch merge.
type state struct {
	mayPub     bool // some path reaches here with the hint published
	mayUnpub   bool // some path reaches here with the hint clear
	deferClear bool // a deferred clear is armed on every path to here
}

func (s *state) Clone() *state { n := *s; return &n }

func (s *state) Join(o *state) {
	s.mayPub = s.mayPub || o.mayPub
	s.mayUnpub = s.mayUnpub || o.mayUnpub
	s.deferClear = s.deferClear && o.deferClear
}

type checker struct {
	fi        *core.FuncInfo
	scope     map[string]*core.FuncInfo
	acquirers map[string]bool
	report    core.Reporter

	publishes []token.Pos
	ownDefer  bool
}

func (c *checker) check() {
	if !c.isPublisher() {
		return
	}
	flow := core.Flow[*state]{
		Call: c.call,
		Defer: func(st *state, call *ast.CallExpr) {
			if clears(call) {
				st.deferClear, c.ownDefer = true, true
			}
		},
		Exit: c.exit,
	}
	flow.Run(c.fi.Decl.Body, &state{mayUnpub: true})
	c.panicCover()
}

// isPublisher pre-scans the body for a non-literal-zero activeHint
// store outside defer statements.
func (c *checker) isPublisher() bool {
	found := false
	ast.Inspect(c.fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if hintStore(n) && !zeroArg(n) {
				found = true
			}
		}
		return true
	})
	return found
}

// hintStore matches <expr>.activeHint.Store(arg).
func hintStore(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Store" {
		return false
	}
	field, ok := sel.X.(*ast.SelectorExpr)
	return ok && field.Sel.Name == "activeHint"
}

func zeroArg(call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "0"
}

// clears matches x.activeHint.Store(0).
func clears(call *ast.CallExpr) bool { return hintStore(call) && zeroArg(call) }

// call applies one call's effect to the state: clear, publish, or a
// possible region acquisition while unpublished (rule 1).
func (c *checker) call(st *state, call *ast.CallExpr) {
	if hintStore(call) {
		if zeroArg(call) {
			st.mayPub = false
			st.mayUnpub = true
		} else {
			st.mayPub = true
			st.mayUnpub = false
			c.publishes = append(c.publishes, call.Pos())
		}
		return
	}
	if st.mayUnpub && c.mayAcquire(call) {
		c.report(call.Pos(), "exec-phase function %s may acquire a region before publishing activeHint; pool scans cannot see the held leaves, so a conflicting steal blocks instead of deferring", c.fi.Name)
	}
}

func (c *checker) mayAcquire(call *ast.CallExpr) bool {
	if core.ProducesGuard(c.fi.Pkg.Info, call) {
		return true
	}
	callee := core.CalleeOf(c.fi.Pkg.Info, call)
	return callee != nil && c.acquirers[core.FuncKey(callee)]
}

// exit fires rule 2 on an exit path reached with the hint possibly
// still published and no deferred clear armed.
func (c *checker) exit(st *state, at token.Pos, _ bool) {
	if st.mayPub && !st.deferClear {
		c.report(at, "exit path leaves activeHint published in %s; clear it (activeHint.Store(0)) on every return or a stale mask makes other workers defer forever", c.fi.Name)
	}
}

// panicCover fires rule 3: a publisher with no deferred clear of its own
// must have every in-scope call site lexically preceded by a caller-side
// deferred clear, so a panicking request cannot strand the mask.
func (c *checker) panicCover() {
	if c.ownDefer || len(c.publishes) == 0 {
		return
	}
	covered := false
	uncoveredCallers := 0
	for _, caller := range c.scope {
		for _, call := range caller.Calls {
			if call.CalleeKey != c.fi.Key {
				continue
			}
			if callerDeferBefore(caller, call.Pos) {
				covered = true
			} else {
				uncoveredCallers++
				c.report(call.Pos, "call into activeHint publisher %s is not panic-covered; arm defer activeHint.Store(0) before this call (or inside %s itself)", c.fi.Name, c.fi.Name)
			}
		}
	}
	if !covered && uncoveredCallers == 0 {
		c.report(c.publishes[0], "activeHint publish in %s is not panic-covered; arm defer activeHint.Store(0) here or in every exec-phase caller", c.fi.Name)
	}
}

// callerDeferBefore reports whether caller arms a deferred hint clear
// (`defer x.activeHint.Store(0)`, or a deferred closure that runs one)
// lexically before pos.
func callerDeferBefore(caller *core.FuncInfo, pos token.Pos) bool {
	found := false
	ast.Inspect(caller.Decl.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && d.Pos() < pos {
			core.DeferredCalls(d, func(call *ast.CallExpr) { found = found || clears(call) })
		}
		return !found
	})
	return found
}
