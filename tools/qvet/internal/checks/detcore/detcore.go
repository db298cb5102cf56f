// Package detcore enforces the determinism contract (DESIGN.md §11):
// world evolution must be a pure function of (state, inputs, seed), or
// replay bit-identity (§11) and digest-exact crash recovery (§12) break
// frames after the divergence with no pointer back to the cause.
//
// A function annotated //qvet:det is a determinism root. Its transitive
// static call closure — through any chain of unannotated helpers — may
// not reach:
//
//   - wall-clock reads or timer constructors (time.Now, time.Since,
//     time.Until, time.After, time.Tick, time.NewTicker, time.NewTimer,
//     time.AfterFunc);
//   - the process-global math/rand (package-level Intn, Float64, ...,
//     whose shared source is seeded per-process); constructors (rand.New,
//     rand.NewSource, ...) and methods on an explicit *rand.Rand are
//     allowed, because a deliberately seeded source is the worldmap
//     generator's documented mechanism;
//   - a range over a map, unless the loop body is provably
//     order-insensitive or the range carries //qvet:allow=maporder with
//     a reason. Map iteration order is randomized per run, so an
//     order-sensitive body diverges between record and replay even
//     though every individual operation is deterministic.
//
// A loop body is accepted as order-insensitive when every statement is
// one of: a write through a map index (plain assignment always; += / ++
// only when the element type is an integer, where accumulation
// commutes); delete on a map; integer accumulation into local
// variables; append onto a slice variable that is passed to a sort
// (sort.Slice/Strings/Ints/..., slices.Sort*) after the loop in the
// same function; or control flow (if/for/switch/block/continue/break)
// over only such statements. Everything else — sends, returns, calls,
// float accumulation — is treated as order-sensitive.
//
// Soundness gap (documented): the closure runs over the static call
// graph, so calls through interfaces, function values, and reflection
// are invisible, and a map range inside a function literal is attributed
// to the enclosing function.
package detcore

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"qserve/tools/qvet/internal/core"
)

// Analyzer is the detcore check.
var Analyzer = &core.Analyzer{
	Name:       "detcore",
	Doc:        "//qvet:det closures avoid wall clock, global math/rand, and order-sensitive map iteration",
	RunProgram: runProgram,
}

// wallClock is the banned set of time-package entry points: reads of the
// wall/monotonic clock and timer constructors (a timer firing is a
// scheduler-dependent event, unusable in deterministic code).
var wallClock = map[string]bool{
	"time.Now":       true,
	"time.Since":     true,
	"time.Until":     true,
	"time.After":     true,
	"time.Tick":      true,
	"time.NewTicker": true,
	"time.NewTimer":  true,
	"time.AfterFunc": true,
}

// sortCalls are recognized as "feeds a sort": an append target passed to
// one of these after the loop makes the append order irrelevant.
var sortCalls = map[string]bool{
	"sort.Slice":            true,
	"sort.SliceStable":      true,
	"sort.Sort":             true,
	"sort.Stable":           true,
	"sort.Strings":          true,
	"sort.Ints":             true,
	"sort.Float64s":         true,
	"slices.Sort":           true,
	"slices.SortFunc":       true,
	"slices.SortStableFunc": true,
}

func runProgram(prog *core.Program, report core.Reporter) error {
	g := prog.EnsureGraph()

	// Deterministic root order so diagnostics attribute a stable
	// root/path when several roots reach the same helper.
	var roots []*core.FuncInfo
	for _, fi := range g.Funcs {
		if fi.Annot != nil && fi.Annot.Det {
			roots = append(roots, fi)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Key < roots[j].Key })

	// Each function is checked once, attributed to the first root that
	// reaches it; an annotated callee is its own root.
	stop := func(_, callee *core.FuncInfo) bool { return callee.Annot != nil && callee.Annot.Det }
	g.Walk(roots, true, stop, func(chain []*core.FuncInfo) {
		root, fi := chain[0], chain[len(chain)-1]
		checkBody(prog, root, fi, chain[1:], report)
		for _, call := range fi.Calls {
			if banned(call.CalleeKey) {
				report(call.Pos, "determinism root %s reaches %s%s; //qvet:det code must be a pure function of (state, inputs, seed)", root.Name, bannedName(call.CalleeKey), core.Via(chain[1:]))
			}
		}
	})
	return nil
}

// banned reports whether a callee key is a wall-clock read or a
// process-global math/rand call. Package-level rand constructors (New,
// NewSource, NewPCG, ...) and *rand.Rand methods survive: both operate
// on an explicitly seeded source.
func banned(key string) bool {
	if wallClock[key] {
		return true
	}
	for _, pkg := range []string{"math/rand.", "math/rand/v2."} {
		name, ok := strings.CutPrefix(key, pkg)
		if !ok {
			continue
		}
		if strings.Contains(name, ".") {
			return false // method on Rand/Source/Zipf: explicit source
		}
		return !strings.HasPrefix(name, "New")
	}
	return false
}

func bannedName(key string) string {
	if wallClock[key] {
		return key
	}
	return key + " (process-global math/rand)"
}

// checkBody flags order-sensitive ranges over maps in fi's body.
func checkBody(prog *core.Program, root, fi *core.FuncInfo, helpers []*core.FuncInfo, report core.Reporter) {
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if prog.Annots.Allowed("maporder", prog.Fset.Position(rng.Pos())) {
			return true
		}
		if orderInsensitive(info, fi.Decl.Body, rng) {
			return true
		}
		report(rng.Pos(), "range over map %s in %s is order-sensitive (reached from //qvet:det root %s%s); iterate sorted keys, make the body commutative, or annotate //qvet:allow=maporder with a reason", typeString(tv.Type), fi.Name, root.Name, core.Via(helpers))
		return true
	})
}

func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// orderInsensitive reports whether the range body commutes across
// iteration orders under the conservative statement grammar described in
// the package comment.
func orderInsensitive(info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt) bool {
	// Slice variables the loop appends to; each must reach a sort call
	// after the loop.
	appendTargets := make(map[types.Object]bool)
	if !stmtsInsensitive(info, rng.Body.List, appendTargets) {
		return false
	}
	for obj := range appendTargets {
		if !sortedAfter(info, fnBody, rng, obj) {
			return false
		}
	}
	return true
}

func stmtsInsensitive(info *types.Info, stmts []ast.Stmt, appendTargets map[types.Object]bool) bool {
	for _, s := range stmts {
		if !stmtInsensitive(info, s, appendTargets) {
			return false
		}
	}
	return true
}

func stmtInsensitive(info *types.Info, s ast.Stmt, appendTargets map[types.Object]bool) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if s.Tok == token.DEFINE {
			return true // fresh per-iteration locals are harmless
		}
		for i, lhs := range s.Lhs {
			if !assignTargetInsensitive(info, s, i, lhs, appendTargets) {
				return false
			}
		}
		return true
	case *ast.IncDecStmt:
		return integerWriteTarget(info, s.X)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
				return true
			}
		}
		return false
	case *ast.IfStmt:
		if !stmtInsensitiveBlock(info, s.Body, appendTargets) {
			return false
		}
		if s.Else != nil {
			return stmtInsensitive(info, s.Else, appendTargets)
		}
		return true
	case *ast.BlockStmt:
		return stmtsInsensitive(info, s.List, appendTargets)
	case *ast.ForStmt:
		return stmtInsensitiveBlock(info, s.Body, appendTargets)
	case *ast.RangeStmt:
		// A nested map range is checked on its own; for order purposes
		// only the statements matter.
		return stmtInsensitiveBlock(info, s.Body, appendTargets)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			if !stmtsInsensitive(info, cc.Body, appendTargets) {
				return false
			}
		}
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE || s.Tok == token.BREAK
	case *ast.DeclStmt:
		return true
	}
	return false
}

func stmtInsensitiveBlock(info *types.Info, b *ast.BlockStmt, appendTargets map[types.Object]bool) bool {
	return b != nil && stmtsInsensitive(info, b.List, appendTargets)
}

// assignTargetInsensitive classifies one LHS of a non-define assignment.
func assignTargetInsensitive(info *types.Info, as *ast.AssignStmt, i int, lhs ast.Expr, appendTargets map[types.Object]bool) bool {
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return false
		}
		// s = append(s, ...): provisionally fine, must feed a sort.
		if as.Tok == token.ASSIGN && len(as.Lhs) == len(as.Rhs) && isSelfAppend(info, obj, as.Rhs[i]) {
			appendTargets[obj] = true
			return true
		}
		// x += e / x |= e on an integer local: commutative accumulation.
		if as.Tok != token.ASSIGN {
			return integerObj(obj)
		}
		return false
	}
	if idx, ok := lhs.(*ast.IndexExpr); ok {
		tv, ok := info.Types[idx.X]
		if !ok {
			return false
		}
		m, isMap := tv.Type.Underlying().(*types.Map)
		if !isMap {
			return false
		}
		if as.Tok == token.ASSIGN {
			return true // set-style write, keyed independently of order
		}
		return isInteger(m.Elem())
	}
	return false
}

func isSelfAppend(info *types.Info, obj types.Object, rhs ast.Expr) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	return ok && info.Uses[arg] == obj
}

// sortedAfter reports whether obj is passed to a recognized sort call
// positioned after the range statement within the same function body.
func sortedAfter(info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		callee := core.CalleeOf(info, call)
		if callee == nil || !sortCalls[core.FuncKey(callee)] {
			return true
		}
		arg := call.Args[0]
		if id, ok := arg.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}

func integerWriteTarget(info *types.Info, x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.Ident:
		return integerObj(info.Uses[x])
	case *ast.IndexExpr:
		tv, ok := info.Types[x.X]
		if !ok {
			return false
		}
		if m, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return isInteger(m.Elem())
		}
	}
	return false
}

func integerObj(obj types.Object) bool {
	return obj != nil && isInteger(obj.Type())
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
