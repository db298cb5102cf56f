package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// openSet is the toy state: the identifiers open(x) opened and shut(x)
// has not closed yet, on some path (join is union).
type openSet map[string]bool

func (o openSet) Clone() openSet {
	n := openSet{}
	n.Join(o)
	return n
}

func (o openSet) Join(p openSet) {
	for k := range p {
		o[k] = true
	}
}

func (o openSet) String() string {
	var names []string
	for k := range o {
		names = append(names, k)
	}
	sort.Strings(names)
	return "[" + strings.Join(names, ",") + "]"
}

// runToy interprets func f() { body } and returns the events it saw:
// mark[...] at each mark() call, defer:name per deferred call, and
// return[...] / end[...] per exit.
func runToy(t *testing.T, body string) string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "toy.go", "package p\nfunc f() {\n"+body+"\n}", 0)
	if err != nil {
		t.Fatalf("parse %q: %v", body, err)
	}
	var events []string
	arg := func(call *ast.CallExpr) string { return call.Args[0].(*ast.Ident).Name }
	flow := Flow[openSet]{
		Call: func(s openSet, call *ast.CallExpr) {
			switch call.Fun.(*ast.Ident).Name {
			case "open":
				s[arg(call)] = true
			case "shut":
				delete(s, arg(call))
			case "mark":
				events = append(events, "mark"+s.String())
			}
		},
		Defer: func(_ openSet, call *ast.CallExpr) {
			events = append(events, "defer:"+call.Fun.(*ast.Ident).Name)
		},
		Exit: func(s openSet, _ token.Pos, isReturn bool) {
			if isReturn {
				events = append(events, "return"+s.String())
			} else {
				events = append(events, "end"+s.String())
			}
		},
	}
	flow.Run(file.Decls[0].(*ast.FuncDecl).Body, openSet{})
	return strings.Join(events, " ")
}

func TestFlow(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string
	}{
		{"straight line", `open(a); shut(a)`, "end[]"},
		{"return ends a path", `open(a); if c { return }; shut(a)`, "return[a] end[]"},
		{"panic ends a path without an exit", `open(a); if c { panic(c) }; shut(a)`, "end[]"},
		{"if/else joins both arms", `if c { open(a) } else { open(b) }`, "end[a,b]"},

		{"loop body interpreted twice", `for c { mark(); open(a) }`, "mark[] mark[a] end[a]"},
		{"range may run zero times", `open(a); for range xs { shut(a) }`, "end[a]"},
		{"for without condition leaves only by break", `for { open(a); shut(a) }`, ""},
		{"unlabeled break", `for { open(a); if c { break }; shut(a) }`, "end[a]"},
		{"unlabeled break leaves the inner loop only", `for c { for { open(a); break }; shut(a) }`, "end[]"},
		{"labeled break leaves the outer loop", `outer: for c { for { open(a); break outer }; shut(a) }`, "end[a]"},
		{"unlabeled continue", `for c { open(a); if d { continue }; shut(a) }`, "end[a]"},
		{"unlabeled continue stays in the inner loop", `for c { for d { open(a); continue }; shut(a) }`, "end[]"},
		{"labeled continue skips the rest of the outer body", `outer: for c { for d { open(a); continue outer }; shut(a) }`, "end[a]"},

		{"switch without default lets the entry through", `open(a); switch x { case 1: shut(a) }`, "end[a]"},
		{"switch with default", `open(a); switch x { case 1: shut(a); default: shut(a) }`, "end[]"},
		{"fallthrough carries state into the next clause", `switch x { case 1: open(a); fallthrough; case 2: shut(a) }`, "end[]"},
		{"fallthrough into default", `switch x { case 1: open(a); fallthrough; default: mark() }`, "mark[a] end[a]"},
		{"type switch", `switch y := x.(type) { case int: open(a); default: open(b) }`, "end[a,b]"},
		{"select without default runs a clause", `open(a); select { case <-ch: shut(a) }`, "end[]"},
		{"select with default", `open(a); select { case <-ch: shut(a); default: }`, "end[a]"},
		{"empty select blocks forever", `open(a); select {}`, ""},
		{"break leaves the select, not the loop", `for c { select { case <-ch: open(a); break; default: }; mark() }`, "mark[a] mark[a] end[a]"},

		{"goto ends the path without an exit", `open(a); goto L; L: shut(a)`, ""},
		{"function literals are separate scopes", `f := func() { open(a) }; f()`, "end[]"},
		{"deferred call", `open(a); defer shut(a)`, "defer:shut end[a]"},
		{"deferred closure", `defer func() { shut(a); mark() }()`, "defer:shut defer:mark end[]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := runToy(t, tc.body); got != tc.want {
				t.Errorf("%s\n got: %q\nwant: %q", tc.body, got, tc.want)
			}
		})
	}
}

// toyGraph builds a call graph from "caller:callee,callee" edges; a name
// starting with '@' is //qvet:det-annotated.
func toyGraph(edges ...string) *Graph {
	g := &Graph{Funcs: map[string]*FuncInfo{}}
	node := func(name string) *FuncInfo {
		key := strings.TrimPrefix(name, "@")
		if g.Funcs[key] == nil {
			g.Funcs[key] = &FuncInfo{Key: key, Name: key}
		}
		if name != key {
			g.Funcs[key].Annot = &FuncAnnot{Det: true}
		}
		return g.Funcs[key]
	}
	for _, e := range edges {
		caller, callees, _ := strings.Cut(e, ":")
		fi := node(caller)
		for _, c := range strings.Split(callees, ",") {
			fi.Calls = append(fi.Calls, Call{CalleeKey: node(c).Key})
		}
	}
	return g
}

func TestWalk(t *testing.T) {
	g := toyGraph("R1:H,@A", "R2:H,K", "H:L", "@A:M")
	roots := []*FuncInfo{g.Funcs["R1"], g.Funcs["R2"]}
	stop := func(_, callee *FuncInfo) bool { return callee.Annot != nil }
	walk := func(shared bool) string {
		var seen []string
		g.Walk(roots, shared, stop, func(chain []*FuncInfo) {
			var names []string
			for _, fi := range chain {
				names = append(names, fi.Name)
			}
			seen = append(seen, strings.Join(names, ">"))
		})
		return strings.Join(seen, " ")
	}
	// Per-root closures stop at the annotated A and revisit H for R2.
	if got, want := walk(false), "R1 R1>H R1>H>L R2 R2>H R2>H>L R2>K"; got != want {
		t.Errorf("per-root walk\n got: %s\nwant: %s", got, want)
	}
	// A shared visited set attributes H (and L) to the first root only.
	if got, want := walk(true), "R1 R1>H R1>H>L R2 R2>K"; got != want {
		t.Errorf("shared walk\n got: %s\nwant: %s", got, want)
	}
}

func TestMayReachAndVia(t *testing.T) {
	g := toyGraph("R1:H", "R2:H,K", "H:L", "K:M")
	keys := func(set map[string]bool) string {
		var out []string
		for k := range set {
			out = append(out, k)
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	isL := func(fi *FuncInfo) bool { return fi.Key == "L" }
	if got := keys(g.MayReach(isL, nil)); got != "H,L,R1,R2" {
		t.Errorf("MayReach = %s, want H,L,R1,R2", got)
	}
	notR2 := func(fi *FuncInfo) bool { return fi.Key != "R2" }
	if got := keys(g.MayReach(isL, notR2)); got != "H,L,R1" {
		t.Errorf("MayReach within = %s, want H,L,R1", got)
	}
	if got := Via(nil); got != "" {
		t.Errorf("Via(nil) = %q", got)
	}
	if got := Via([]*FuncInfo{g.Funcs["H"], g.Funcs["L"]}); got != " via H -> L" {
		t.Errorf("Via = %q", got)
	}
}
