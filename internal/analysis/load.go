package analysis

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

// Package is one loaded, typechecked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
	// Target marks packages named by the load patterns (as opposed to
	// packages pulled in only as dependencies).
	Target bool
}

// LoadError is the typed error returned when a listed package cannot be
// loaded: the go tool reported an error for it (missing dependency,
// broken source) or parsing/typechecking failed. Callers distinguish it
// from loader-internal failures with errors.As.
type LoadError struct {
	// ImportPath is the package the failure was reported against.
	ImportPath string
	// Reason is the underlying go list / parser / typechecker message.
	Reason string
}

// Error formats the failure with its package context.
func (e *LoadError) Error() string {
	return fmt.Sprintf("analysis: %s: %s", e.ImportPath, e.Reason)
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Standard   bool
	DepOnly    bool
	ForTest    string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load resolves patterns with the go tool (run in dir, "" for the
// current directory), parses and typechecks the matched packages and
// their dependencies from source, and returns the matched packages.
// It is a deliberately small stand-in for golang.org/x/tools/go/packages
// that works without network access: `go list -deps` emits packages in
// dependency order, so a single pass with a map-backed importer
// typechecks everything. Packages with cgo files are skipped: the
// loader has no C toolchain, and the analyzers' disciplines are about
// pure-Go runtime code.
func Load(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, false, patterns)
}

// LoadTests is Load with `go list -test`: each matched package that has
// tests is returned as its test-augmented variant (regular files plus
// _test.go files, each file exactly once), external _test packages are
// returned as their own targets, and the synthesized ".test" main
// packages are dropped.
func LoadTests(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, true, patterns)
}

func load(dir string, tests bool, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	args := []string{"list", "-e", "-deps"}
	if tests {
		args = append(args, "-test")
	}
	args = append(args, "-json=Dir,ImportPath,Name,Standard,DepOnly,ForTest,GoFiles,CgoFiles,Imports,ImportMap,Error")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// Resolve the dependency closure without cgo: packages like net then
	// list their pure-Go fallback files, so the whole closure typechecks
	// in one universe. With cgo on, net would be skipped (no C toolchain
	// here) and its importers would resolve it through the fallback
	// source importer's separate universe, breaking type identity (two
	// distinct time.Time inside crypto/tls, say).
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	var listed []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		listed = append(listed, lp)
	}

	// In test mode a package with tests is listed twice: plain and as
	// the augmented "pkg [pkg.test]" variant whose GoFiles already
	// include the _test.go files. Analyze only the variant so every
	// file is seen exactly once; the plain package stays loaded as a
	// dependency for non-test importers.
	augmented := make(map[string]bool)
	if tests {
		for _, lp := range listed {
			if lp.ForTest != "" && !strings.HasSuffix(lp.Name, "_test") {
				augmented[lp.ForTest] = true
			}
		}
	}

	fset := token.NewFileSet()
	byPath := make(map[string]*Package, len(listed))
	var targets []*Package
	for _, lp := range listed {
		if lp.ImportPath == "unsafe" {
			byPath["unsafe"] = &Package{ImportPath: "unsafe", Pkg: types.Unsafe}
			continue
		}
		if strings.HasSuffix(lp.ImportPath, ".test") {
			continue // synthesized test-main package; nothing imports it
		}
		if lp.Error != nil {
			return nil, &LoadError{ImportPath: lp.ImportPath, Reason: lp.Error.Err}
		}
		if len(lp.CgoFiles) > 0 {
			continue // no C toolchain here; see Load doc comment
		}
		pkg, err := typecheck(fset, lp, byPath)
		if err != nil {
			return nil, err
		}
		byPath[lp.ImportPath] = pkg
		if !lp.DepOnly && !augmented[lp.ImportPath] {
			pkg.Target = true
			targets = append(targets, pkg)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("analysis: no packages matched %v", patterns)
	}
	return targets, nil
}

// typecheck parses and typechecks one listed package against the
// already-loaded dependency map.
func typecheck(fset *token.FileSet, lp *listedPackage, byPath map[string]*Package) (*Package, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, &LoadError{ImportPath: lp.ImportPath, Reason: fmt.Sprintf("parsing %s: %v", name, err)}
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: &mapImporter{byPath: byPath, importMap: lp.ImportMap},
		Sizes:    types.SizesFor("gc", "amd64"),
		Error:    func(error) {}, // collect the first hard error below instead
	}
	// Typecheck test-augmented variants ("pkg [pkg.test]") under the
	// plain path so analyzers that inspect Pkg.Path() (e.g. the experiments
	// wall-clock exemption) see the real import path.
	checkPath := lp.ImportPath
	if i := strings.Index(checkPath, " ["); i >= 0 {
		checkPath = checkPath[:i]
	}
	tpkg, err := conf.Check(checkPath, fset, files, info)
	if err != nil {
		return nil, &LoadError{ImportPath: lp.ImportPath, Reason: fmt.Sprintf("typechecking: %v", err)}
	}
	return &Package{
		ImportPath: lp.ImportPath,
		Dir:        lp.Dir,
		Fset:       fset,
		Files:      files,
		Pkg:        tpkg,
		TypesInfo:  info,
	}, nil
}

// mapImporter resolves imports from the packages typechecked so far,
// applying the package's vendor import map first. Because `go list
// -deps` is topologically ordered, every import of a package appears in
// the map before the package itself is checked. The source fallback
// importer is only consulted for oddities like implicit runtime deps.
type mapImporter struct {
	byPath    map[string]*Package
	importMap map[string]string
	fallback  types.Importer
}

// Import resolves path through the vendor import map and the
// already-typechecked package set, falling back to the source importer
// for packages outside the dependency closure.
func (m *mapImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	if p, ok := m.byPath[path]; ok {
		return p.Pkg, nil
	}
	if m.fallback == nil {
		m.fallback = importer.ForCompiler(token.NewFileSet(), "source", nil)
	}
	pkg, err := m.fallback.Import(path)
	if err != nil {
		return nil, fmt.Errorf("package %q not in dependency set: %v", path, err)
	}
	return pkg, nil
}
