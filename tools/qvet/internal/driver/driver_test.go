package driver_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"qserve/tools/qvet/internal/analysistest"
	"qserve/tools/qvet/internal/driver"
)

// TestDriverFindsRot runs the full pipeline end to end over a fixture
// whose every //qvet: directive is broken, and checks exit code and
// report formatting.
func TestDriverFindsRot(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := driver.Main([]string{"-C", "testdata/rotfix", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	analysistest.MustFind(t, stdout.String(),
		"rot.go:5:1: annot: //qvet:phase=render names a nonexistent phase",
		`unknown //qvet: directive "frobnicate"`,
		`//qvet:allow references unknown check "spellcheck"`,
		"//qvet:phase directive is not attached to a function declaration",
	)
}

// TestDriverRejectsRetiredDirectives: allocation gates are tier-1 tests
// now (DESIGN.md §9), so a leftover directive of the deleted noalloc
// analyzer is rot like any other and fails the annot check. The module
// is written at run time so the retired spelling appears nowhere in the
// tree.
func TestDriverRejectsRetiredDirectives(t *testing.T) {
	dir := t.TempDir()
	retired := "qvet:" + "noalloc"
	src := "package p\n\n//" + retired + "\nfunc F() int {\n\treturn 1 //qvet:allow=" + "noalloc warm-up growth\n}\n"
	for name, body := range map[string]string{"go.mod": "module p\n\ngo 1.22\n", "p.go": src} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := driver.Main([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	analysistest.MustFind(t, stdout.String(),
		"p.go:3:1: annot: unknown //qvet: directive \"noalloc\"",
		"p.go:5:11: annot: //qvet:allow references unknown check \"noalloc\"",
	)
}

// TestDriverCleanTree exits 0 with no output on a conforming module.
func TestDriverCleanTree(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := driver.Main([]string{"-C", "testdata/clean", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("expected no output, got:\n%s", stdout.String())
	}
}

// TestDriverSubset runs a named subset and rejects unknown checks.
func TestDriverSubset(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := driver.Main([]string{"-C", "testdata/clean", "-checks", "lockguard,phasecheck", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("subset run: exit %d, stderr: %s", code, stderr.String())
	}
	if code := driver.Main([]string{"-checks", "nosuchcheck"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown check: exit %d, want 2", code)
	}
}

// TestDriverList prints the suite.
func TestDriverList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := driver.Main([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	analysistest.MustFind(t, stdout.String(), "lockguard", "phasecheck", "annot", "detcore",
		"stealcheck")
}

// TestDriverJSON emits the same findings as machine-readable JSON, in
// the same deterministic order.
func TestDriverJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := driver.Main([]string{"-C", "testdata/rotfix", "-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	var findings []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Column  int    `json:"column"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(findings) == 0 {
		t.Fatal("expected findings, got an empty array")
	}
	for i, f := range findings {
		if f.File == "" || f.Line == 0 || f.Check == "" || f.Message == "" {
			t.Errorf("finding %d has empty fields: %+v", i, f)
		}
	}
	// Deterministic order: (file, line, check) ascending.
	for i := 1; i < len(findings); i++ {
		a, b := findings[i-1], findings[i]
		ka := fmt.Sprintf("%s\x00%08d\x00%s", a.File, a.Line, a.Check)
		kb := fmt.Sprintf("%s\x00%08d\x00%s", b.File, b.Line, b.Check)
		if ka > kb {
			t.Errorf("findings out of order: %v before %v", a, b)
		}
	}
}
