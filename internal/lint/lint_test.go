package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// sharedLoader builds one export-data loader over the whole module: both the
// fixture suites (which type-check testdata against real bytecard packages)
// and the repo-wide integration test read from it.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderVal, loaderErr = LoadPackages(filepath.Join("..", ".."))
	})
	if loaderErr != nil {
		t.Fatalf("loading module packages: %v", loaderErr)
	}
	return loaderVal
}

// wantRe matches the analysistest-style expectation comment: a trailing
// "// want `regexp`" on the line a diagnostic should land on.
var wantRe = regexp.MustCompile("want `([^`]*)`")

type expectation struct {
	re      *regexp.Regexp
	line    int
	matched bool
}

// collectWants scans fixture comments for expectations, keyed by line.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					out = append(out, &expectation{re: re, line: fset.Position(c.Pos()).Line})
				}
			}
		}
	}
	return out
}

// runFixture type-checks one testdata package and asserts the analyzer's
// diagnostics exactly match its want comments.
func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	loader := sharedLoader(t)
	files, pkg, info, err := loader.CheckDir(dir)
	if err != nil {
		t.Fatalf("checking %s: %v", dir, err)
	}
	results, err := runAnalyzers([]*Analyzer{a}, loader.Fset, files, pkg, info)
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	wants := collectWants(t, loader.Fset, files)
	for _, res := range results {
		for _, d := range res.Diags {
			pos := loader.Fset.Position(d.Pos)
			matched := false
			for _, w := range wants {
				if !w.matched && w.line == pos.Line && w.re.MatchString(d.Message) {
					w.matched = true
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("unexpected diagnostic at %s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
			}
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("expected diagnostic at line %d matching %q, got none", w.line, w.re)
		}
	}
}

// TestAnalyzerFixtures runs every analyzer over its positive and negative
// testdata packages. Each positive fixture proves the analyzer fires; each
// negative fixture proves the idioms and annotations it must accept.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		fixtures []string
	}{
		{MapIter, []string{"mapiter_flag", "mapiter_other"}},
		{AtomicWrite, []string{"atomicwrite_flag", "atomicwrite_other"}},
		{GuardCall, []string{"guardcall_flag", "guardcall_core"}},
		{RandSource, []string{"randsource_flag"}},
		{ScanRead, []string{"scanread_flag"}},
		{LockSafe, []string{"locksafe_flag"}},
		{CtxFlow, []string{"ctxflow_flag"}},
		{GoroutineSrc, []string{"goroutinesrc_flag", "goroutinesrc_par"}},
	}
	for _, tc := range cases {
		for _, fixture := range tc.fixtures {
			t.Run(tc.analyzer.Name+"/"+fixture, func(t *testing.T) {
				runFixture(t, tc.analyzer, filepath.Join("testdata", "src", fixture))
			})
		}
	}
}

// TestRepoIsClean is the integration bar: the full analyzer suite must run
// over every package of this repository without a single diagnostic. New
// violations either get fixed or get an annotated reason; they never land
// silently.
func TestRepoIsClean(t *testing.T) {
	loader := sharedLoader(t)
	for _, pkgPath := range loader.Packages() {
		results, err := loader.Run(pkgPath, All())
		if err != nil {
			t.Fatalf("analyzing %s: %v", pkgPath, err)
		}
		for _, res := range results {
			for _, d := range res.Diags {
				t.Errorf("%s: %s: %s", res.Analyzer, loader.Fset.Position(d.Pos), d.Message)
			}
		}
	}
}

// TestParseAnnotation pins the annotation grammar.
func TestParseAnnotation(t *testing.T) {
	cases := []struct {
		comment    string
		wantOK     bool
		wantName   string
		wantReason string
	}{
		{"//bytecard:unordered-ok keys sorted downstream", true, "unordered", "keys sorted downstream"},
		{"//bytecard:lock-ok", true, "lock", ""},
		{"//bytecard:rand-ok   spaced   reason", true, "rand", "spaced   reason"},
		{"// ordinary comment", false, "", ""},
		{"//bytecard:unordered", false, "", ""},
		{"//bytecard:-ok no name", false, "", ""},
	}
	for _, tc := range cases {
		a, ok := parseAnnotation(&ast.Comment{Text: tc.comment})
		if ok != tc.wantOK {
			t.Errorf("parseAnnotation(%q) ok = %v, want %v", tc.comment, ok, tc.wantOK)
			continue
		}
		if ok && (a.name != tc.wantName || a.reason != tc.wantReason) {
			t.Errorf("parseAnnotation(%q) = (%q, %q), want (%q, %q)", tc.comment, a.name, a.reason, tc.wantName, tc.wantReason)
		}
	}
}

// TestSuppressionPlacement verifies same-line and line-above placement, and
// that an empty reason does not suppress.
func TestSuppressionPlacement(t *testing.T) {
	src := `package x

func f() {
	_ = 1 //bytecard:demo-ok same line
	//bytecard:demo-ok line above
	_ = 2
	//bytecard:demo-ok
	_ = 3
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Fset: fset, Files: []*ast.File{file}, annotations: indexAnnotations(fset, []*ast.File{file})}
	posOnLine := func(line int) token.Pos {
		tf := fset.File(file.Pos())
		return tf.LineStart(line)
	}
	if !pass.Suppressed("demo", posOnLine(4)) {
		t.Error("same-line annotation should suppress")
	}
	if !pass.Suppressed("demo", posOnLine(6)) {
		t.Error("line-above annotation should suppress")
	}
	if pass.Suppressed("demo", posOnLine(8)) {
		t.Error("reasonless annotation must not suppress")
	}
	if !pass.MissingReason("demo", posOnLine(8)) {
		t.Error("reasonless annotation should report MissingReason")
	}
	if pass.Suppressed("other", posOnLine(4)) {
		t.Error("annotation key must match the analyzer key")
	}
}

// TestDiagnosticFormat pins the file:line:col rendering TestRepoIsClean
// reports, which editors parse.
func TestDiagnosticFormat(t *testing.T) {
	fset := token.NewFileSet()
	f := fset.AddFile("demo.go", -1, 100)
	f.SetLines([]int{0, 10, 20})
	pos := f.Pos(12)
	got := fmt.Sprintf("%s: %s", fset.Position(pos), "mapiter: message")
	want := "demo.go:2:3: mapiter: message"
	if got != want {
		t.Errorf("diagnostic format = %q, want %q", got, want)
	}
}
