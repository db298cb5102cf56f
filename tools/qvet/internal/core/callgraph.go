package core

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The call graph is static and name-resolved: an edge exists where a
// CallExpr's callee resolves to a concrete *types.Func (package function
// or method on a concrete receiver). Calls through interfaces, function
// values, and reflection produce no edge — a documented soundness gap
// (DESIGN.md §9); the frame pipeline's hot paths call concrete methods,
// which is what makes the phase and noalloc closures checkable at all.
//
// Nodes are keyed by a world-independent string (package path + receiver
// type name + method name) because the same function is represented by
// different types.Func objects depending on whether its package was
// type-checked from source or loaded from export data as a dependency.

// Call is one resolved static call site.
type Call struct {
	CalleeKey string
	Pos       token.Pos
}

// FuncInfo is one function with a body in a target package.
type FuncInfo struct {
	Key       string
	Name      string // human-readable, e.g. (*World).ExecuteMove
	Decl      *ast.FuncDecl
	Pkg       *Package
	Annot     *FuncAnnot // nil when unannotated
	Calls     []Call
	File      string // absolute path of the defining file
	StartLine int    // first line of the declaration
	EndLine   int    // last line of the body
}

// Graph is the program call graph over target-package functions.
type Graph struct {
	Funcs map[string]*FuncInfo
}

// EnsureGraph builds (once) and returns the program call graph.
func (prog *Program) EnsureGraph() *Graph {
	if prog.Graph != nil {
		return prog.Graph
	}
	g := &Graph{Funcs: make(map[string]*FuncInfo)}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				start := prog.Fset.Position(fd.Pos())
				end := prog.Fset.Position(fd.Body.End())
				fi := &FuncInfo{
					Key:       FuncKey(obj),
					Name:      prettyName(obj),
					Decl:      fd,
					Pkg:       pkg,
					Annot:     prog.Annots.FuncOf(fd),
					File:      start.Filename,
					StartLine: start.Line,
					EndLine:   end.Line,
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := CalleeOf(pkg.Info, call); callee != nil {
						fi.Calls = append(fi.Calls, Call{CalleeKey: FuncKey(callee), Pos: call.Pos()})
					}
					return true
				})
				g.Funcs[fi.Key] = fi
			}
		}
	}
	prog.Graph = g
	return g
}

// Walk visits the static call closure of roots depth-first, in call
// order. visit receives the chain root → helpers → fi of the first path
// that reached fi (valid only during the call); stop, when non-nil,
// prunes the edge from a root's closure into callee, which is then
// neither visited nor descended. With shared, one visited set spans all
// roots, so each function is visited once, attributed to the first root
// in roots that reaches it; otherwise every root gets its own closure.
func (g *Graph) Walk(roots []*FuncInfo, shared bool, stop func(root, callee *FuncInfo) bool, visit func(chain []*FuncInfo)) {
	visited := make(map[string]bool)
	var walk func(chain []*FuncInfo)
	walk = func(chain []*FuncInfo) {
		visit(chain)
		for _, call := range chain[len(chain)-1].Calls {
			// A nil callee is stdlib, an interface method, or bodyless.
			callee := g.Funcs[call.CalleeKey]
			if callee == nil || visited[callee.Key] || stop != nil && stop(chain[0], callee) {
				continue
			}
			visited[callee.Key] = true
			walk(append(chain, callee))
		}
	}
	for _, root := range roots {
		if !shared {
			clear(visited)
		}
		if !visited[root.Key] {
			visited[root.Key] = true
			walk([]*FuncInfo{root})
		}
	}
}

// MayReach is the backward may-fixpoint over the graph: the set of
// functions that have a property themselves or call, through functions
// that are within (every function when within is nil), one that does.
func (g *Graph) MayReach(has, within func(*FuncInfo) bool) map[string]bool {
	callers := make(map[string][]string)
	out := make(map[string]bool)
	var work []string
	for _, fi := range g.Funcs {
		if within != nil && !within(fi) {
			continue
		}
		for _, call := range fi.Calls {
			callers[call.CalleeKey] = append(callers[call.CalleeKey], fi.Key)
		}
		if has(fi) {
			out[fi.Key] = true
			work = append(work, fi.Key)
		}
	}
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		for _, caller := range callers[key] {
			if !out[caller] {
				out[caller] = true
				work = append(work, caller)
			}
		}
	}
	return out
}

// Via formats a helper chain for a diagnostic: " via a -> b", or ""
// when the chain is empty.
func Via(helpers []*FuncInfo) string {
	s := ""
	for i, fi := range helpers {
		if i == 0 {
			s = " via "
		} else {
			s += " -> "
		}
		s += fi.Name
	}
	return s
}

// CalleeOf resolves a call expression to its static callee, or nil for
// dynamic calls (interface methods resolve to the interface's method
// object, which has no body in the graph and therefore dangles).
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f.Origin()
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f.Origin()
		}
	}
	return nil
}

// FuncKey returns the world-independent node key for f.
func FuncKey(f *types.Func) string {
	f = f.Origin()
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	if recv := recvTypeName(f); recv != "" {
		return pkg + "." + recv + "." + f.Name()
	}
	return pkg + "." + f.Name()
}

func prettyName(f *types.Func) string {
	if recv := recvTypeName(f); recv != "" {
		return "(*" + recv + ")." + f.Name()
	}
	return f.Name()
}

func recvTypeName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return types.TypeString(t, nil)
}

// IsGuardType matches the named type Guard from a package named
// "locking". Matching by package name (not full import path) lets the
// analyzer fixtures stub their own mini locking package.
func IsGuardType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Guard" && obj.Pkg() != nil && obj.Pkg().Name() == "locking"
}

// ProducesGuard reports whether the call's result, or any element of a
// tuple result (TryAcquire's (Guard, bool)), is a locking.Guard.
func ProducesGuard(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if IsGuardType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return IsGuardType(tv.Type)
}
