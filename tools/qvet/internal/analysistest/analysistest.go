// Package analysistest runs qvet analyzers over a fixture module and
// compares the diagnostics against // want "regexp" expectations in the
// fixture source — the stdlib-only equivalent of
// golang.org/x/tools/go/analysis/analysistest. A want comment matches
// any diagnostic reported on its line; multiple quoted regexps may
// follow one want.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"qserve/tools/qvet/internal/checks"
	"qserve/tools/qvet/internal/core"
	"qserve/tools/qvet/internal/load"
)

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// Run loads the fixture module at dir, executes the analyzers, and
// reports every mismatch between produced diagnostics and want
// expectations as test errors.
func Run(t *testing.T, dir string, analyzers []*core.Analyzer) {
	t.Helper()
	prog, err := load.Load(dir, []string{"./..."}, checks.ValidChecks())
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := core.RunAnalyzers(prog, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, a := range analyzers {
		if a.Name == "annot" {
			diags = append(diags, prog.Annots.Problems...)
			break
		}
	}

	type key struct {
		file string
		line int
	}
	type want struct {
		re      *regexp.Regexp
		raw     string
		matched bool
	}
	wants := make(map[key][]*want)
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					for _, q := range quotedRE.FindAllString(m[1], -1) {
						pat, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						}
						k := key{pos.Filename, pos.Line}
						wants[k] = append(wants[k], &want{re: re, raw: pat})
					}
				}
			}
		}
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: %s: %s", shorten(dir, d.Pos.Filename), d.Pos.Line, d.Check, d.Message)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", shorten(dir, k.file), k.line, w.raw)
			}
		}
	}
}

func shorten(dir, file string) string {
	if rel, ok := strings.CutPrefix(file, dir); ok {
		return strings.TrimPrefix(rel, "/")
	}
	return file
}

// MustFind is a convenience for driver-level smoke tests: it fails
// unless output contains every needle.
func MustFind(t *testing.T, output string, needles ...string) {
	t.Helper()
	for _, n := range needles {
		if !strings.Contains(output, n) {
			t.Errorf("output missing %q; got:\n%s", n, output)
		}
	}
}
