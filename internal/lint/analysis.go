// Package lint is ByteCard's domain-specific static-analysis layer: eight
// project analyzers (see All) that turn the codebase's determinism,
// guard-discipline, crash-safe-write, lock, context and goroutine conventions into
// machine-checked invariants, plus a loader that type-checks the module's
// packages from `go list -export` output. TestRepoIsClean runs every
// analyzer over every package as part of `go test ./...`; it is the one
// lint gate.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Diagnostic) so analyzers port verbatim if the
// dependency ever becomes available; it is built on the standard library
// only (go/ast, go/types, go/importer) because this module vendors nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check: a name (also its diagnostic
// prefix), user-facing documentation, and the function that inspects one
// package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and annotations.
	Name string
	// Doc explains the invariant and how to satisfy or waive it.
	Doc string
	// Run inspects one type-checked package, reporting findings through
	// pass.Report. The error return is for operational failures (analysis
	// could not run), not findings.
	Run func(pass *Pass) error
}

// Pass carries one package's parsed and type-checked state through one
// analyzer run.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps positions for every file in the pass.
	Fset *token.FileSet
	// Files holds the package's parsed sources (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the package's type-checking facts.
	TypesInfo *types.Info
	// Report receives each diagnostic.
	Report func(Diagnostic)

	// annotations indexes //bytecard:*-ok suppression comments per file.
	annotations map[*ast.File]fileAnnotations
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. The project
// analyzers police production invariants; tests legitimately iterate maps,
// call models directly, and use ambient randomness.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// fileForPos returns the *ast.File containing pos.
func (p *Pass) fileForPos(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// PackageResult is one package's accumulated diagnostics.
type PackageResult struct {
	// PkgPath is the package under analysis.
	PkgPath string
	// Analyzer names the check that produced Diags.
	Analyzer string
	// Diags is position-sorted.
	Diags []Diagnostic
}

// runAnalyzers executes every analyzer over one type-checked package,
// returning per-analyzer position-sorted diagnostics. Analyzer errors are
// returned as a joined operational failure.
func runAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]PackageResult, error) {
	var out []PackageResult
	var errs []string
	ann := indexAnnotations(fset, files)
	for _, a := range analyzers {
		var diags []Diagnostic
		pass := &Pass{
			Analyzer:    a,
			Fset:        fset,
			Files:       files,
			Pkg:         pkg,
			TypesInfo:   info,
			annotations: ann,
			Report:      func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", a.Name, err))
			continue
		}
		sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
		out = append(out, PackageResult{PkgPath: pkg.Path(), Analyzer: a.Name, Diags: diags})
	}
	if len(errs) > 0 {
		return out, fmt.Errorf("lint: %s", strings.Join(errs, "; "))
	}
	return out, nil
}

// newTypesInfo allocates the full fact set the analyzers consume.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
