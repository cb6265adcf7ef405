package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
	Incomplete bool
	Error      *struct{ Err string }
}

// Loader type-checks module packages from source, resolving every import
// through compiler export data produced by `go list -export`. It needs the
// go toolchain but no network and no third-party packages — the same
// contract as the rest of this repository.
type Loader struct {
	Fset *token.FileSet
	// pkgs holds the module's own packages in `go list` order.
	pkgs []*listPackage
	// exportFile maps import path → export data file for the full -deps
	// closure (standard library included).
	exportFile map[string]string
	imp        types.Importer
}

// LoadPackages runs `go list -json -export -deps patterns` in dir and
// prepares a loader over the module packages it reports.
func LoadPackages(dir string, patterns ...string) (*Loader, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json", "-export", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	l := &Loader{Fset: token.NewFileSet(), exportFile: map[string]string{}}
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			l.exportFile[p.ImportPath] = p.Export
		}
		if p.Module != nil && !p.Standard {
			cp := p
			l.pkgs = append(l.pkgs, &cp)
		}
	}
	l.imp = l.newImporter()
	return l, nil
}

// newImporter builds a gc-export-data importer over the recorded files.
func (l *Loader) newImporter() types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := l.exportFile[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(l.Fset, "gc", lookup)
}

// Packages returns the import paths of the loaded module packages.
func (l *Loader) Packages() []string {
	out := make([]string, len(l.pkgs))
	for i, p := range l.pkgs {
		out[i] = p.ImportPath
	}
	return out
}

// Check parses and type-checks one loaded package from source. Only
// GoFiles are analyzed: _test.go files are exempt from every project
// analyzer.
func (l *Loader) Check(pkgPath string) ([]*ast.File, *types.Package, *types.Info, error) {
	var lp *listPackage
	for _, p := range l.pkgs {
		if p.ImportPath == pkgPath {
			lp = p
			break
		}
	}
	if lp == nil {
		return nil, nil, nil, fmt.Errorf("lint: package %q not loaded", pkgPath)
	}
	if len(lp.CgoFiles) > 0 {
		return nil, nil, nil, fmt.Errorf("lint: package %q uses cgo (unsupported)", pkgPath)
	}
	var names []string
	for _, f := range lp.GoFiles {
		names = append(names, filepath.Join(lp.Dir, f))
	}
	return l.checkFiles(pkgPath, names)
}

// CheckDir parses every .go file in dir as a single package and
// type-checks it against the loader's export data — the analysistest path:
// testdata packages may import the standard library and bytecard packages
// alike, as long as each import appears in the module's dependency closure.
func (l *Loader) CheckDir(dir string) ([]*ast.File, *types.Package, *types.Info, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	if len(names) == 0 {
		return nil, nil, nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	return l.checkFiles("test/"+filepath.Base(dir), names)
}

func (l *Loader) checkFiles(pkgPath string, names []string) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := newTypesInfo()
	conf := types.Config{Importer: l.imp}
	pkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("lint: type-checking %s: %v", pkgPath, err)
	}
	return files, pkg, info, nil
}

// Run type-checks one package and applies the analyzers.
func (l *Loader) Run(pkgPath string, analyzers []*Analyzer) ([]PackageResult, error) {
	files, pkg, info, err := l.Check(pkgPath)
	if err != nil {
		return nil, err
	}
	return runAnalyzers(analyzers, l.Fset, files, pkg, info)
}
