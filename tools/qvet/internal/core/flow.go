package core

import (
	"go/ast"
	"go/token"
)

// FlowState is an analyzer's abstract state on one control-flow path.
// Clone copies it for a fork; Join folds another path's state into the
// receiver where two paths meet.
type FlowState[S any] interface {
	Clone() S
	Join(S)
}

// Flow is the path-sensitive abstract interpreter lockguard and
// stealcheck share. It walks one function body over an analyzer-owned
// state S, forking it at branches and joining it where paths meet:
//
//   - if, switch and type switch fork per branch; a switch without a
//     default also lets the entry state through, and fallthrough carries
//     a clause's state into the next clause's body;
//   - select forks per clause; without a default it must run one;
//   - for and range bodies are interpreted twice, the second time from
//     the entry joined with the back edge, so state carried around the
//     loop meets the body's own effects; a for without a condition exits
//     only through break;
//   - break and continue go to the statement their label names, else to
//     the innermost breakable (loop, switch, select) or loop;
//   - return ends a path through Exit; panic(...) ends it without Exit;
//     goto ends it without Exit too (a documented approximation: its
//     target is not followed);
//   - function literals are separate scopes and are not entered.
//
// Hooks may be nil. They mutate the state they are handed.
type Flow[S FlowState[S]] struct {
	// Expr sees each expression the body evaluates, in statement order.
	// discarded marks an expression statement, whose value is dropped.
	Expr func(s S, e ast.Expr, discarded bool)
	// Call sees each call inside those expressions, in source pre-order.
	Call func(s S, call *ast.CallExpr)
	// Assign sees lhs = rhs (and var lhs = rhs) after the right-hand
	// sides and non-identifier left-hand sides went through Expr and Call.
	Assign func(s S, lhs, rhs []ast.Expr)
	// Defer sees each call a defer statement runs at exit: see
	// DeferredCalls.
	Defer func(s S, call *ast.CallExpr)
	// Exit sees the state on each path that leaves the function
	// normally: at a return (after its results went through Expr and
	// Call) or at the closing brace.
	Exit func(s S, at token.Pos, isReturn bool)
}

// Run interprets body from the entry state.
func (f *Flow[S]) Run(body *ast.BlockStmt, entry S) {
	w := &flowWalk[S]{f: f}
	if s, live := w.stmts(body.List, entry); live && f.Exit != nil {
		f.Exit(s, body.Rbrace, false)
	}
}

// calls calls fn for each call in n in source pre-order, skipping
// function literals.
func calls(n ast.Node, fn func(*ast.CallExpr)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fn(n)
		}
		return true
	})
}

// DeferredCalls calls fn for each call d runs at exit: the deferred call
// itself, or each call in the body of a deferred function literal.
func DeferredCalls(d *ast.DeferStmt, fn func(*ast.CallExpr)) {
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		calls(lit.Body, fn)
		return
	}
	fn(d.Call)
}

// flowTarget collects the states that leave one breakable statement by
// break, and for loops the states that reach its back edge by continue.
type flowTarget[S any] struct {
	label             string
	loop              bool
	breaks, continues []S
}

type flowWalk[S FlowState[S]] struct {
	f       *Flow[S]
	targets []*flowTarget[S]
}

// join folds the states of paths that meet; live is false when there
// are none, i.e. every path ended before this point.
func join[S FlowState[S]](paths []S) (s S, live bool) {
	if len(paths) == 0 {
		return s, false
	}
	for _, p := range paths[1:] {
		paths[0].Join(p)
	}
	return paths[0], true
}

func keep[S any](paths []S, s S, live bool) []S {
	if live {
		return append(paths, s)
	}
	return paths
}

// stmts interprets a statement list; live is false when no path falls
// off its end.
func (w *flowWalk[S]) stmts(list []ast.Stmt, s S) (S, bool) {
	for _, n := range list {
		var live bool
		if s, live = w.stmt(n, s, ""); !live {
			return s, false
		}
	}
	return s, true
}

// stmt interprets one statement; label is the label it carries.
func (w *flowWalk[S]) stmt(n ast.Stmt, s S, label string) (S, bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		w.assign(s, n.Lhs, n.Rhs)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					w.assign(s, lhs, vs.Values)
				}
			}
		}
	case *ast.ExprStmt:
		w.expr(s, n.X, true)
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return s, false
			}
		}
	case *ast.SendStmt:
		w.expr(s, n.Chan, false)
		w.expr(s, n.Value, false)
	case *ast.IncDecStmt:
		w.expr(s, n.X, false)
	case *ast.GoStmt:
		w.expr(s, n.Call, false)
	case *ast.DeferStmt:
		if w.f.Defer != nil {
			DeferredCalls(n, func(call *ast.CallExpr) { w.f.Defer(s, call) })
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			w.expr(s, r, false)
		}
		if w.f.Exit != nil {
			w.f.Exit(s, n.Pos(), true)
		}
		return s, false
	case *ast.BranchStmt:
		switch t := w.target(n); {
		case t == nil: // goto, or a fallthrough clauses did not consume
		case n.Tok == token.BREAK:
			t.breaks = append(t.breaks, s)
		default:
			t.continues = append(t.continues, s)
		}
		return s, false
	case *ast.BlockStmt:
		return w.stmts(n.List, s)
	case *ast.LabeledStmt:
		return w.stmt(n.Stmt, s, n.Label.Name)
	case *ast.IfStmt:
		s, _ = w.stmt(n.Init, s, "")
		w.expr(s, n.Cond, false)
		els, elseLive := s.Clone(), true
		then, thenLive := w.stmts(n.Body.List, s)
		if n.Else != nil {
			els, elseLive = w.stmt(n.Else, els, "")
		}
		return join(keep(keep(nil, then, thenLive), els, elseLive))
	case *ast.ForStmt:
		s, _ = w.stmt(n.Init, s, "")
		return w.loop(label, n.Cond, n.Post, n.Body, n.Cond != nil, s)
	case *ast.RangeStmt:
		w.expr(s, n.X, false)
		return w.loop(label, nil, nil, n.Body, true, s)
	case *ast.SwitchStmt:
		s, _ = w.stmt(n.Init, s, "")
		w.expr(s, n.Tag, false)
		return w.clauses(label, n.Body, true, s)
	case *ast.TypeSwitchStmt:
		s, _ = w.stmt(n.Init, s, "")
		s, _ = w.stmt(n.Assign, s, "")
		return w.clauses(label, n.Body, true, s)
	case *ast.SelectStmt:
		return w.clauses(label, n.Body, false, s)
	}
	return s, true
}

func (w *flowWalk[S]) expr(s S, e ast.Expr, discarded bool) {
	if e == nil {
		return
	}
	if w.f.Expr != nil {
		w.f.Expr(s, e, discarded)
	}
	if w.f.Call != nil {
		calls(e, func(call *ast.CallExpr) { w.f.Call(s, call) })
	}
}

func (w *flowWalk[S]) assign(s S, lhs, rhs []ast.Expr) {
	for _, r := range rhs {
		w.expr(s, r, false)
	}
	for _, l := range lhs {
		if _, ok := l.(*ast.Ident); !ok {
			w.expr(s, l, false)
		}
	}
	if w.f.Assign != nil {
		w.f.Assign(s, lhs, rhs)
	}
}

// target resolves a break or continue to the statement it leaves.
func (w *flowWalk[S]) target(n *ast.BranchStmt) *flowTarget[S] {
	if n.Tok != token.BREAK && n.Tok != token.CONTINUE {
		return nil
	}
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := w.targets[i]
		if n.Label != nil && n.Label.Name == t.label || n.Label == nil && (t.loop || n.Tok == token.BREAK) {
			return t
		}
	}
	return nil
}

func (w *flowWalk[S]) push(label string, loop bool) *flowTarget[S] {
	t := &flowTarget[S]{label: label, loop: loop}
	w.targets = append(w.targets, t)
	return t
}

func (w *flowWalk[S]) pop() { w.targets = w.targets[:len(w.targets)-1] }

// loop interprets a for or range body twice: once from the entry head,
// once from the head joined with the first pass's back edge. mayExit
// is false for a for without a condition, which leaves only by break.
func (w *flowWalk[S]) loop(label string, cond ast.Expr, post ast.Stmt, body *ast.BlockStmt, mayExit bool, head S) (S, bool) {
	t := w.push(label, true)
	var exits []S
	for pass := 0; pass < 2; pass++ {
		w.expr(head, cond, false)
		b, live := w.stmts(body.List, head.Clone())
		end, backEdge := join(keep(t.continues, b, live))
		t.continues = nil
		if backEdge {
			end, _ = w.stmt(post, end, "")
		}
		if pass == 0 {
			if !backEdge {
				break // one pass already saw every path through the body
			}
			head.Join(end)
		} else if backEdge && mayExit {
			exits = append(exits, end)
		}
	}
	w.pop()
	if mayExit {
		exits = append(exits, head)
	}
	return join(append(exits, t.breaks...))
}

// clauses interprets the clause list of a switch, type switch
// (isSwitch) or select.
func (w *flowWalk[S]) clauses(label string, body *ast.BlockStmt, isSwitch bool, s S) (S, bool) {
	t := w.push(label, false)
	var outs, carry []S
	hasDefault := false
	for _, cl := range body.List {
		var comm ast.Stmt
		var list []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				w.expr(s, e, false)
			}
			hasDefault = hasDefault || cl.List == nil
			list = cl.Body
		case *ast.CommClause:
			comm, list = cl.Comm, cl.Body
		}
		cs, _ := join(append(carry, s.Clone()))
		carry = nil
		cs, _ = w.stmt(comm, cs, "")
		ft := false
		if n := len(list); n > 0 {
			if b, ok := list[n-1].(*ast.BranchStmt); ok && b.Tok == token.FALLTHROUGH {
				list, ft = list[:n-1], true
			}
		}
		out, live := w.stmts(list, cs)
		if ft {
			carry = keep(nil, out, live)
		} else {
			outs = keep(outs, out, live)
		}
	}
	w.pop()
	if isSwitch && !hasDefault {
		outs = append(outs, s)
	}
	return join(append(outs, t.breaks...))
}
