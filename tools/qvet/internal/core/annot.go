package core

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Annotation grammar (see DESIGN.md §9):
//
//	//qvet:phase=reply|physics|exec   on a func declaration's doc comment
//	//qvet:noalloc                    on a func declaration's doc comment
//	//qvet:det                        on a func declaration's doc comment;
//	                                  marks a determinism root (detcore)
//	//qvet:wire=<format>              on a struct type declaration: the
//	                                  struct is part of <format>'s schema
//	//qvet:wire=<format> encode       on a func: an encoder for <format>
//	//qvet:wire=<format> decode       on a func: a decoder for <format>
//	//qvet:wire=<format> version      on a const: <format>'s version const
//	//qvet:allow=<check> [reason]     anywhere; suppresses <check> findings
//	                                  on its own line and the next line
//
// Anything else spelled //qvet:... is recorded as a Problem and reported
// by the annot check, so a typo'd phase name or an annotation stranded on
// a declaration the suite does not understand fails CI instead of
// silently checking nothing.

// Phase is a frame-pipeline phase name.
type Phase string

const (
	PhaseReply   Phase = "reply"
	PhasePhysics Phase = "physics"
	PhaseExec    Phase = "exec"
)

// ValidPhases is the closed set of phase names.
var ValidPhases = map[Phase]bool{PhaseReply: true, PhasePhysics: true, PhaseExec: true}

// FuncAnnot is the directives attached to one function declaration.
type FuncAnnot struct {
	Phase      Phase // "" when not phase-annotated
	PhasePos   token.Pos
	NoAlloc    bool
	NoAllocPos token.Pos
	// Det marks a determinism root: the function's transitive static
	// call closure is checked by detcore.
	Det    bool
	DetPos token.Pos
	// Wire holds the function's encoder/decoder roles, one per format.
	Wire []WireAnnot
}

// WireRole distinguishes the sides of a //qvet:wire directive.
type WireRole string

// Wire directive roles. WireSchema is the empty role used on struct
// type declarations.
const (
	WireSchema  WireRole = ""
	WireEncode  WireRole = "encode"
	WireDecode  WireRole = "decode"
	WireVersion WireRole = "version"
)

// WireAnnot is one parsed //qvet:wire directive occurrence.
type WireAnnot struct {
	Format string
	Role   WireRole
	Pos    token.Pos
}

// WireVersionDecl records a //qvet:wire=<format> version constant.
type WireVersionDecl struct {
	Name string
	Pos  token.Pos
}

// Index is the program-wide annotation table.
type Index struct {
	ByFunc map[*ast.FuncDecl]*FuncAnnot
	// WireTypes maps annotated struct type declarations to their format
	// memberships (a struct may belong to several formats).
	WireTypes map[*ast.TypeSpec][]WireAnnot
	// WireVersions maps a format name to its annotated version consts.
	WireVersions map[string][]WireVersionDecl
	// allows: file -> line -> set of check names suppressed on that line.
	allows map[string]map[int]map[string]bool
	// Problems are malformed or misattached directives, reported by the
	// annot check.
	Problems []Diagnostic
}

// FuncOf returns the annotations for decl, or nil.
func (ix *Index) FuncOf(decl *ast.FuncDecl) *FuncAnnot {
	if ix == nil {
		return nil
	}
	return ix.ByFunc[decl]
}

// Allowed reports whether findings of check at pos are suppressed by a
// //qvet:allow comment.
func (ix *Index) Allowed(check string, pos token.Position) bool {
	if ix == nil {
		return false
	}
	lines := ix.allows[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line][check]
}

func (ix *Index) allow(file string, line int, check string) {
	if ix.allows[file] == nil {
		ix.allows[file] = make(map[int]map[string]bool)
	}
	for _, l := range []int{line, line + 1} {
		if ix.allows[file][l] == nil {
			ix.allows[file][l] = make(map[string]bool)
		}
		ix.allows[file][l][check] = true
	}
}

func (ix *Index) problem(fset *token.FileSet, pos token.Pos, format string, args ...any) {
	ix.Problems = append(ix.Problems, Diagnostic{
		Pos:     fset.Position(pos),
		Check:   "annot",
		Message: fmt.Sprintf(format, args...),
	})
}

// owner is the declaration a doc comment belongs to: exactly one field
// is non-nil. Spec-level docs (inside grouped type/const blocks) resolve
// to the spec; a GenDecl doc with a single spec resolves to that spec.
type owner struct {
	fn  *ast.FuncDecl
	typ *ast.TypeSpec
	val *ast.ValueSpec
}

// BuildIndex scans every file of every target package for //qvet:
// directives. validChecks is the closed set of check names accepted in
// //qvet:allow.
func BuildIndex(fset *token.FileSet, pkgs []*Package, validChecks map[string]bool) *Index {
	ix := &Index{
		ByFunc:       make(map[*ast.FuncDecl]*FuncAnnot),
		WireTypes:    make(map[*ast.TypeSpec][]WireAnnot),
		WireVersions: make(map[string][]WireVersionDecl),
		allows:       make(map[string]map[int]map[string]bool),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			docOwner := make(map[*ast.CommentGroup]owner)
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Doc != nil {
						docOwner[d.Doc] = owner{fn: d}
					}
				case *ast.GenDecl:
					if d.Doc != nil {
						if o, ok := soleSpecOwner(d); ok {
							docOwner[d.Doc] = o
						}
					}
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Doc != nil {
								docOwner[s.Doc] = owner{typ: s}
							}
						case *ast.ValueSpec:
							if s.Doc != nil {
								docOwner[s.Doc] = owner{val: s}
							}
						}
					}
				}
			}
			for _, group := range file.Comments {
				own := docOwner[group]
				for _, c := range group.List {
					if !strings.HasPrefix(c.Text, "//qvet:") {
						continue
					}
					ix.directive(fset, c, own, validChecks)
				}
			}
		}
	}
	return ix
}

// soleSpecOwner resolves a GenDecl-level doc comment to its single spec,
// covering the common `type Foo struct{...}` and `const V = 1` forms.
func soleSpecOwner(d *ast.GenDecl) (owner, bool) {
	if len(d.Specs) != 1 {
		return owner{}, false
	}
	switch s := d.Specs[0].(type) {
	case *ast.TypeSpec:
		return owner{typ: s}, true
	case *ast.ValueSpec:
		return owner{val: s}, true
	}
	return owner{}, false
}

func (ix *Index) directive(fset *token.FileSet, c *ast.Comment, own owner, validChecks map[string]bool) {
	body := strings.TrimPrefix(c.Text, "//qvet:")
	switch {
	case strings.HasPrefix(body, "allow="):
		rest := strings.TrimPrefix(body, "allow=")
		check := rest
		if i := strings.IndexByte(rest, ' '); i >= 0 {
			check = rest[:i]
			if strings.TrimSpace(rest[i:]) == "" {
				ix.problem(fset, c.Pos(), "//qvet:allow=%s has an empty reason; drop the trailing space or state the reason", check)
			}
		}
		if !validChecks[check] {
			ix.problem(fset, c.Pos(), "//qvet:allow references unknown check %q (valid: %s)", check, joinSorted(validChecks))
			return
		}
		ix.allow(fset.Position(c.Pos()).Filename, fset.Position(c.Pos()).Line, check)

	case strings.HasPrefix(body, "phase="):
		name := Phase(strings.TrimPrefix(body, "phase="))
		if !ValidPhases[name] {
			ix.problem(fset, c.Pos(), "//qvet:phase=%s names a nonexistent phase (valid: reply, physics, exec)", name)
			return
		}
		fa := ix.attach(fset, c, own, "phase")
		if fa == nil {
			return
		}
		if fa.Phase != "" && fa.Phase != name {
			ix.problem(fset, c.Pos(), "conflicting phase annotations on %s: %s and %s", own.fn.Name.Name, fa.Phase, name)
			return
		}
		fa.Phase = name
		fa.PhasePos = c.Pos()

	case body == "noalloc":
		fa := ix.attach(fset, c, own, "noalloc")
		if fa == nil {
			return
		}
		fa.NoAlloc = true
		fa.NoAllocPos = c.Pos()

	case body == "det":
		fa := ix.attach(fset, c, own, "det")
		if fa == nil {
			return
		}
		fa.Det = true
		fa.DetPos = c.Pos()

	case strings.HasPrefix(body, "wire="):
		ix.wireDirective(fset, c, own, strings.TrimPrefix(body, "wire="))

	default:
		ix.problem(fset, c.Pos(), "unknown //qvet: directive %q (valid: phase=, noalloc, det, wire=, allow=)", body)
	}
}

// wireDirective parses the argument of //qvet:wire= ("<format>" on a
// struct type, "<format> encode|decode" on a function, "<format>
// version" on a const) and files it under the owning declaration.
func (ix *Index) wireDirective(fset *token.FileSet, c *ast.Comment, own owner, arg string) {
	fields := strings.Fields(arg)
	if len(fields) == 0 || len(fields) > 2 {
		ix.problem(fset, c.Pos(), "//qvet:wire=%s is malformed (want \"<format>\" on a struct, \"<format> encode|decode\" on a func, \"<format> version\" on a const)", arg)
		return
	}
	format := fields[0]
	if !validWireFormat(format) {
		ix.problem(fset, c.Pos(), "//qvet:wire format %q is malformed (lowercase letters, digits, '-', '_')", format)
		return
	}
	role := WireSchema
	if len(fields) == 2 {
		role = WireRole(fields[1])
	}
	wa := WireAnnot{Format: format, Role: role, Pos: c.Pos()}
	switch role {
	case WireEncode, WireDecode:
		if own.fn == nil {
			ix.problem(fset, c.Pos(), "//qvet:wire=%s %s must be attached to a function declaration's doc comment", format, role)
			return
		}
		if own.fn.Body == nil {
			ix.problem(fset, c.Pos(), "//qvet:wire=%s %s on %s: declaration has no body to analyze", format, role, own.fn.Name.Name)
			return
		}
		fa := ix.funcAnnot(own.fn)
		fa.Wire = append(fa.Wire, wa)
	case WireVersion:
		if own.val == nil || len(own.val.Names) != 1 {
			ix.problem(fset, c.Pos(), "//qvet:wire=%s version must be attached to a single const declaration", format)
			return
		}
		ix.WireVersions[format] = append(ix.WireVersions[format], WireVersionDecl{Name: own.val.Names[0].Name, Pos: c.Pos()})
	case WireSchema:
		if own.typ == nil {
			ix.problem(fset, c.Pos(), "//qvet:wire=%s must be attached to a struct type declaration (or name a role: encode, decode, version)", format)
			return
		}
		if _, ok := own.typ.Type.(*ast.StructType); !ok {
			ix.problem(fset, c.Pos(), "//qvet:wire=%s on %s: schema membership requires a struct type", format, own.typ.Name.Name)
			return
		}
		ix.WireTypes[own.typ] = append(ix.WireTypes[own.typ], wa)
	default:
		ix.problem(fset, c.Pos(), "//qvet:wire=%s names unknown role %q (valid: encode, decode, version)", format, string(role))
	}
}

func validWireFormat(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		ok := r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '_'
		if !ok {
			return false
		}
	}
	return true
}

func joinSorted(set map[string]bool) string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return strings.Join(names, ", ")
}

// funcAnnot returns (creating if needed) the annotation record for decl.
func (ix *Index) funcAnnot(decl *ast.FuncDecl) *FuncAnnot {
	fa := ix.ByFunc[decl]
	if fa == nil {
		fa = &FuncAnnot{}
		ix.ByFunc[decl] = fa
	}
	return fa
}

// attach binds a phase/noalloc/det directive to its doc-comment owner,
// recording a Problem when the directive is stranded somewhere the suite
// does not understand (not a func declaration's doc comment, or a
// bodyless declaration the checks cannot analyze).
func (ix *Index) attach(fset *token.FileSet, c *ast.Comment, own owner, kind string) *FuncAnnot {
	if own.fn == nil {
		ix.problem(fset, c.Pos(), "//qvet:%s directive is not attached to a function declaration's doc comment", kind)
		return nil
	}
	if own.fn.Body == nil {
		ix.problem(fset, c.Pos(), "//qvet:%s on %s: declaration has no body to analyze", kind, own.fn.Name.Name)
		return nil
	}
	return ix.funcAnnot(own.fn)
}
