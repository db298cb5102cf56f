// Package atomicfield enforces all-or-nothing atomicity on struct
// fields: once any code passes &s.f to a sync/atomic function, every
// other access to that field must also go through sync/atomic — a plain
// read or write races with the atomic users (the lockset intuition of
// Eraser applied to Go's memory model). Two supporting rules ride
// along: 64-bit raw atomics are checked for 8-byte alignment under
// 32-bit layout (the pre-go1.19 trap the issue names for fields like
// fwdFrame/phaseStart), and typed atomic.* fields must never be
// assigned or copied wholesale — Store/Load are the only sanctioned
// access.
//
// The check is program-wide: a field collected in one package is flagged
// on plain access from any other loaded package. Init-time plain writes
// that are provably pre-concurrency can be suppressed with
// //qvet:allow=atomicfield and a reason.
package atomicfield

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"qserve/tools/qvet/internal/core"
)

// Analyzer is the atomicfield check.
var Analyzer = &core.Analyzer{
	Name:       "atomicfield",
	Doc:        "fields accessed via sync/atomic are never accessed plainly; 64-bit raw atomics are alignment-safe",
	RunProgram: runProgram,
}

// atomicUse records one sync/atomic call on a field.
type atomicUse struct {
	pos token.Pos
	fn  string
}

func runProgram(prog *core.Program, report core.Reporter) error {
	// Pass 1: collect every field whose address feeds a sync/atomic
	// call, keyed world-independently (the same field is a different
	// types.Var depending on whether its package was loaded from source
	// or export data).
	fields := make(map[string]atomicUse)
	marked := make(map[ast.Node]bool) // &x.f nodes already blessed as atomic
	for _, pkg := range prog.Packages {
		collect(prog, pkg, fields, marked, report)
	}
	if len(fields) == 0 {
		return nil
	}
	// Pass 2: flag plain accesses to collected fields.
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || marked[sel] {
					return true
				}
				f := fieldOf(pkg.Info, sel)
				if f == nil {
					return true
				}
				if use, ok := fields[fieldKey(prog, pkg.Info, sel, f)]; ok {
					report(sel.Pos(), "plain access to field %s, which is accessed atomically at %s (%s); every access must go through sync/atomic", f.Name(), prog.Fset.Position(use.pos), use.fn)
				}
				return true
			})
		}
	}
	return nil
}

func collect(prog *core.Program, pkg *core.Package, fields map[string]atomicUse, marked map[ast.Node]bool, report core.Reporter) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				name := atomicFuncName(pkg.Info, n)
				if name == "" || len(n.Args) == 0 {
					return true
				}
				un, ok := ast.Unparen(n.Args[0]).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					return true
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				f := fieldOf(pkg.Info, sel)
				if f == nil {
					return true
				}
				marked[sel] = true
				key := fieldKey(prog, pkg.Info, sel, f)
				if _, seen := fields[key]; !seen {
					fields[key] = atomicUse{pos: n.Pos(), fn: "atomic." + name}
				}
				if strings.Contains(name, "64") {
					checkAlignment(prog, pkg, sel, f, report)
				}
			case *ast.AssignStmt:
				// Typed atomic.* values must not be copied or replaced
				// wholesale.
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						if f := fieldOf(pkg.Info, sel); f != nil && isTypedAtomic(f.Type()) {
							report(n.Pos(), "typed %s field %s assigned directly; use its Store method", types.TypeString(f.Type(), nil), f.Name())
						}
					}
				}
			}
			return true
		})
	}
}

// checkAlignment verifies the 64-bit raw-atomic field is 8-byte aligned
// under 32-bit (GOARCH=386) struct layout, where the pre-go1.19 runtime
// only guarantees 4-byte field alignment and a misaligned 64-bit atomic
// faults.
func checkAlignment(prog *core.Program, pkg *core.Package, sel *ast.SelectorExpr, f *types.Var, report core.Reporter) {
	s, ok := pkg.Info.Selections[sel]
	if !ok {
		return
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	st, ok := recv.Underlying().(*types.Struct)
	if !ok {
		return
	}
	var all []*types.Var
	idx := -1
	for i := 0; i < st.NumFields(); i++ {
		all = append(all, st.Field(i))
		if st.Field(i) == f {
			idx = i
		}
	}
	if idx < 0 {
		return
	}
	sizes := types.SizesFor("gc", "386")
	offsets := sizes.Offsetsof(all)
	if offsets[idx]%8 != 0 {
		typed := "atomic.Int64"
		if strings.HasPrefix(types.TypeString(f.Type(), nil), "u") {
			typed = "atomic.Uint64"
		}
		report(sel.Pos(), "64-bit atomic access to field %s at 32-bit struct offset %d (not 8-byte aligned); move it to the front of the struct or use %s", f.Name(), offsets[idx], typed)
	}
}

func atomicFuncName(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return ""
	}
	return fn.Name()
}

func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// fieldKey is a world-independent identity for a struct field. The same
// field is a distinct types.Var (with a distinct declaration position)
// depending on whether its package was type-checked from source or
// loaded from export data, so the key is built from names: the selector
// receiver's named type plus the field name. Embedded promotion can
// alias two keys to one field, which only errs toward reporting.
func fieldKey(prog *core.Program, info *types.Info, sel *ast.SelectorExpr, f *types.Var) string {
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	if s, ok := info.Selections[sel]; ok {
		t := s.Recv()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + "." + named.Obj().Name() + "." + f.Name()
		}
	}
	return pkg + "." + f.Name()
}

func isTypedAtomic(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}
