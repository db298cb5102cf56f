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
//	//qvet:det                        on a func declaration's doc comment;
//	                                  marks a determinism root (detcore)
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
	Phase    Phase // "" when not phase-annotated
	PhasePos token.Pos
	// Det marks a determinism root: the function's transitive static
	// call closure is checked by detcore.
	Det    bool
	DetPos token.Pos
}

// Index is the program-wide annotation table.
type Index struct {
	ByFunc map[*ast.FuncDecl]*FuncAnnot
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

// BuildIndex scans every file of every target package for //qvet:
// directives. validChecks is the closed set of check names accepted in
// //qvet:allow.
func BuildIndex(fset *token.FileSet, pkgs []*Package, validChecks map[string]bool) *Index {
	ix := &Index{
		ByFunc: make(map[*ast.FuncDecl]*FuncAnnot),
		allows: make(map[string]map[int]map[string]bool),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			// docOwner maps a func declaration's doc comment to the func;
			// every other comment group maps to nil.
			docOwner := make(map[*ast.CommentGroup]*ast.FuncDecl)
			for _, decl := range file.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok && d.Doc != nil {
					docOwner[d.Doc] = d
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

func (ix *Index) directive(fset *token.FileSet, c *ast.Comment, own *ast.FuncDecl, validChecks map[string]bool) {
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
			ix.problem(fset, c.Pos(), "conflicting phase annotations on %s: %s and %s", own.Name.Name, fa.Phase, name)
			return
		}
		fa.Phase = name
		fa.PhasePos = c.Pos()

	case body == "det":
		fa := ix.attach(fset, c, own, "det")
		if fa == nil {
			return
		}
		fa.Det = true
		fa.DetPos = c.Pos()

	default:
		ix.problem(fset, c.Pos(), "unknown //qvet: directive %q (valid: phase=, det, allow=)", body)
	}
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

// attach binds a phase/det directive to its doc-comment owner,
// returning (creating if needed) the owner's annotation record. It
// records a Problem instead when the directive is stranded somewhere the
// suite does not understand (not a func declaration's doc comment, or a
// bodyless declaration the checks cannot analyze).
func (ix *Index) attach(fset *token.FileSet, c *ast.Comment, own *ast.FuncDecl, kind string) *FuncAnnot {
	if own == nil {
		ix.problem(fset, c.Pos(), "//qvet:%s directive is not attached to a function declaration's doc comment", kind)
		return nil
	}
	if own.Body == nil {
		ix.problem(fset, c.Pos(), "//qvet:%s on %s: declaration has no body to analyze", kind, own.Name.Name)
		return nil
	}
	fa := ix.ByFunc[own]
	if fa == nil {
		fa = &FuncAnnot{}
		ix.ByFunc[own] = fa
	}
	return fa
}
