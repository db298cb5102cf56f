// Package wirecheck proves schema coverage for the hand-rolled binary
// formats (protocol wire v3, QRPL replay logs, QCKP checkpoints). Each
// format is declared by annotations:
//
//	//qvet:wire=<format>          on every struct in the format's schema
//	//qvet:wire=<format> encode   on the encoder entry point(s)
//	//qvet:wire=<format> decode   on the decoder entry point(s)
//	//qvet:wire=<format> version  on the format's version constant
//
// For every annotated struct the analyzer computes the set of fields
// *read* anywhere in the encoder's static call closure and the set of
// fields *written* anywhere in the decoder's closure (assignment
// left-hand sides, ++/--, &x.F address-taking, and composite-literal
// construction all count as writes). A field missing from either set
// fails the build: adding a field to an annotated struct forces both
// sides — and a version bump, which the paired findings make impossible
// to forget — before the tree compiles green. This is the bug class
// fuzzing cannot reach: silent truncation where both sides agree on the
// same wrong schema.
//
// A field that is deliberately absent from the wire image (derived,
// caches, carried elsewhere) takes //qvet:allow=wirecheck on its
// declaration line with a reason.
//
// Soundness gap (documented): field accesses behind interfaces,
// function values, or reflection are invisible to the closure, and a
// read in the encode closure counts even if it is dead code.
package wirecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"qserve/tools/qvet/internal/core"
)

// Analyzer is the wirecheck check.
var Analyzer = &core.Analyzer{
	Name:       "wirecheck",
	Doc:        "encoder-read and decoder-written field sets cover every //qvet:wire struct, per format",
	RunProgram: runProgram,
}

// schemaType is one annotated struct in one format's schema.
type schemaType struct {
	key    string // pkgPath.TypeName
	name   string // human-readable, e.g. protocol.MoveCmd
	fields []schemaField
}

type schemaField struct {
	name string
	pos  token.Pos
}

// format aggregates everything declared for one //qvet:wire format.
type format struct {
	name     string
	anchor   token.Pos // first annotation seen, for format-level reports
	types    []*schemaType
	byKey    map[string]*schemaType
	encoders []*core.FuncInfo
	decoders []*core.FuncInfo
	versions []core.WireVersionDecl
}

func runProgram(prog *core.Program, report core.Reporter) error {
	g := prog.EnsureGraph()
	formats := collect(prog, g)

	names := make([]string, 0, len(formats))
	for n := range formats {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, n := range names {
		f := formats[n]
		if !complete(f, report) {
			continue // field-level results would be all-noise
		}
		reads := fieldAccesses(g, f, f.encoders, encodeReads)
		writes := fieldAccesses(g, f, f.decoders, decodeWrites)
		for _, st := range f.types {
			for _, fld := range st.fields {
				if !reads[st.key][fld.name] {
					report(fld.pos, "field %s.%s is not read by any %s encoder; encode it (and bump the format version) or annotate //qvet:allow=wirecheck with a reason", st.name, fld.name, f.name)
				}
				if !writes[st.key][fld.name] {
					report(fld.pos, "field %s.%s is not written by any %s decoder; decode it (and bump the format version) or annotate //qvet:allow=wirecheck with a reason", st.name, fld.name, f.name)
				}
			}
		}
	}
	return nil
}

// collect groups all //qvet:wire annotations in the program by format.
func collect(prog *core.Program, g *core.Graph) map[string]*format {
	formats := make(map[string]*format)
	get := func(name string, pos token.Pos) *format {
		f := formats[name]
		if f == nil {
			f = &format{name: name, anchor: pos, byKey: make(map[string]*schemaType)}
			formats[name] = f
		}
		if pos < f.anchor {
			f.anchor = pos // earliest annotation anchors format-level reports
		}
		return f
	}

	// Annotated struct types, resolved per package so field positions
	// come from the defining AST.
	for _, pkg := range prog.Packages {
		for ts, annots := range prog.Annots.WireTypes {
			obj, ok := pkg.Info.Defs[ts.Name]
			if !ok || obj == nil {
				continue
			}
			st := &schemaType{
				key:  obj.Pkg().Path() + "." + obj.Name(),
				name: obj.Pkg().Name() + "." + obj.Name(),
			}
			structAST := ts.Type.(*ast.StructType)
			for _, fl := range structAST.Fields.List {
				if len(fl.Names) == 0 {
					// Embedded field: tracked under its type name, the
					// same identifier selector expressions use.
					if id := embeddedName(fl.Type); id != nil {
						st.fields = append(st.fields, schemaField{name: id.Name, pos: id.Pos()})
					}
					continue
				}
				for _, name := range fl.Names {
					st.fields = append(st.fields, schemaField{name: name.Name, pos: name.Pos()})
				}
			}
			for _, wa := range annots {
				f := get(wa.Format, wa.Pos)
				if f.byKey[st.key] == nil {
					f.byKey[st.key] = st
					f.types = append(f.types, st)
				}
			}
		}
	}
	for _, f := range formats {
		sort.Slice(f.types, func(i, j int) bool { return f.types[i].key < f.types[j].key })
	}

	// Encoder/decoder roots.
	var keys []string
	for k := range g.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fi := g.Funcs[k]
		if fi.Annot == nil {
			continue
		}
		for _, wa := range fi.Annot.Wire {
			f := get(wa.Format, wa.Pos)
			switch wa.Role {
			case core.WireEncode:
				f.encoders = append(f.encoders, fi)
			case core.WireDecode:
				f.decoders = append(f.decoders, fi)
			}
		}
	}

	// Version constants.
	for name, decls := range prog.Annots.WireVersions {
		f := get(name, decls[0].Pos)
		f.versions = decls
	}
	return formats
}

func embeddedName(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.Ident:
		return e
	case *ast.StarExpr:
		return embeddedName(e.X)
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// complete checks the format-level requirements: at least one encoder,
// decoder, version const, and schema struct.
func complete(f *format, report core.Reporter) bool {
	ok := true
	if len(f.encoders) == 0 {
		report(f.anchor, "wire format %q has no //qvet:wire=%s encode function", f.name, f.name)
		ok = false
	}
	if len(f.decoders) == 0 {
		report(f.anchor, "wire format %q has no //qvet:wire=%s decode function", f.name, f.name)
		ok = false
	}
	if len(f.versions) == 0 {
		report(f.anchor, "wire format %q has no //qvet:wire=%s version constant", f.name, f.name)
		ok = false
	}
	if len(f.types) == 0 {
		report(f.anchor, "wire format %q has no //qvet:wire=%s schema structs", f.name, f.name)
		ok = false
	}
	return ok
}

// accessFn records field accesses found in one function body into acc.
type accessFn func(fi *core.FuncInfo, f *format, acc map[string]map[string]bool)

// fieldAccesses runs fn over the static call closure of the given roots
// and returns typeKey -> fieldName -> true.
func fieldAccesses(g *core.Graph, f *format, roots []*core.FuncInfo, fn accessFn) map[string]map[string]bool {
	acc := make(map[string]map[string]bool)
	g.Walk(roots, true, nil, func(chain []*core.FuncInfo) { fn(chain[len(chain)-1], f, acc) })
	return acc
}

// schemaKeyOf resolves an expression's type to a schema key of f, or "".
func schemaKeyOf(f *format, t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	if f.byKey[key] == nil {
		return ""
	}
	return key
}

func mark(acc map[string]map[string]bool, key, field string) {
	if acc[key] == nil {
		acc[key] = make(map[string]bool)
	}
	acc[key][field] = true
}

// encodeReads marks every field selection on a schema struct as read.
// types.Selections resolves promoted fields through embedding.
func encodeReads(fi *core.FuncInfo, f *format, acc map[string]map[string]bool) {
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		if key := schemaKeyOf(f, s.Recv()); key != "" {
			mark(acc, key, sel.Sel.Name)
		}
		return true
	})
}

// decodeWrites marks fields written by the decode closure: assignment
// LHS chains (every schema field along the chain counts — writing
// d.State.ID also proves d.State was handled), ++/--, address-taking
// (&m.You handed to a fill helper), and composite-literal construction.
func decodeWrites(fi *core.FuncInfo, f *format, acc map[string]map[string]bool) {
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markChain(info, f, acc, lhs)
			}
		case *ast.IncDecStmt:
			markChain(info, f, acc, n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markChain(info, f, acc, n.X)
			}
		case *ast.CompositeLit:
			markComposite(info, f, acc, n)
		}
		return true
	})
}

// markChain walks a selector chain (d.State.ID, m.Ammo[i], *p.Base)
// marking every schema field it passes through.
func markChain(info *types.Info, f *format, acc map[string]map[string]bool, e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
				if key := schemaKeyOf(f, s.Recv()); key != "" {
					mark(acc, key, x.Sel.Name)
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return
		}
	}
}

// markComposite marks fields constructed by a schema-struct literal:
// keyed elements by name, positional literals as covering every field.
func markComposite(info *types.Info, f *format, acc map[string]map[string]bool, cl *ast.CompositeLit) {
	tv, ok := info.Types[cl]
	if !ok {
		return
	}
	key := schemaKeyOf(f, tv.Type)
	if key == "" {
		return
	}
	st := f.byKey[key]
	if len(cl.Elts) == 0 {
		return
	}
	if kv, ok := cl.Elts[0].(*ast.KeyValueExpr); ok {
		_ = kv
		for _, elt := range cl.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					mark(acc, key, id.Name)
				}
			}
		}
		return
	}
	// Positional literal: the compiler already enforces every field.
	for _, fld := range st.fields {
		mark(acc, key, fld.name)
	}
}
