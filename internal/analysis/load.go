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
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path (or the synthetic path of a fixture)
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// Loader loads and type-checks packages without external dependencies:
// `go list -export` supplies compiler export data for every import, and
// only the packages under analysis are parsed from source. One Loader
// shares a FileSet, an importer cache and the export-data index across
// loads, so repeated fixture loads cost one `go list` in total.
type Loader struct {
	mu       sync.Mutex
	fset     *token.FileSet
	exports  map[string]string // import path → export data file
	meta     map[string]*listPkg
	imp      types.ImporterFrom
	pkgCache map[string]*Package
	dirCache map[string]*Package
}

// NewLoader returns an empty loader. Loaders are safe for concurrent use.
func NewLoader() *Loader {
	l := &Loader{
		fset:     token.NewFileSet(),
		exports:  make(map[string]string),
		meta:     make(map[string]*listPkg),
		pkgCache: make(map[string]*Package),
		dirCache: make(map[string]*Package),
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	}
	l.imp = importer.ForCompiler(l.fset, "gc", lookup).(types.ImporterFrom)
	return l
}

// goList runs `go list -export -json -deps patterns...` and merges the
// results into the loader's metadata, returning this invocation's
// entries in output order.
func (l *Loader) goList(patterns []string) ([]*listPkg, error) {
	args := append([]string{
		"list", "-export",
		"-json=Dir,ImportPath,Export,Standard,DepOnly,GoFiles,Error",
		"-deps",
	}, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}
	var listed []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		listed = append(listed, &p)
		if prev, ok := l.meta[p.ImportPath]; ok {
			// A package can be a bare dependency in one invocation and a
			// target in a later one; a target entry always wins.
			if prev.DepOnly && !p.DepOnly {
				l.meta[p.ImportPath] = &p
			}
		} else {
			l.meta[p.ImportPath] = &p
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	return listed, nil
}

// ensure guarantees export data is indexed for every given import path
// (and its dependencies), running `go list` only for the missing ones.
func (l *Loader) ensure(paths []string) error {
	var missing []string
	for _, p := range paths {
		if p == "unsafe" { // resolved internally by the gc importer
			continue
		}
		if _, ok := l.exports[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	_, err := l.goList(missing)
	return err
}

// Load loads the packages matching the go-list patterns (testdata trees
// are excluded from wildcard patterns, as everywhere in the go tool) and
// type-checks each matched package from source.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	listed, err := l.goList(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := l.check(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// check type-checks one listed package from source, with caching.
func (l *Loader) check(p *listPkg) (*Package, error) {
	if pkg, ok := l.pkgCache[p.ImportPath]; ok {
		return pkg, nil
	}
	var paths []string
	for _, f := range p.GoFiles {
		paths = append(paths, filepath.Join(p.Dir, f))
	}
	pkg, err := l.typecheck(p.ImportPath, paths)
	if err != nil {
		return nil, err
	}
	l.pkgCache[p.ImportPath] = pkg
	return pkg, nil
}

// LoadDir parses and type-checks all non-test .go files of one directory
// as a package with the given import path — the fixture loader:
// testdata packages are invisible to go-list wildcards, and asPath lets
// a fixture pose as any package (e.g. a deterministic-core path).
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	key := dir + "\x00" + asPath
	if pkg, ok := l.dirCache[key]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %v", err)
	}
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		paths = append(paths, filepath.Join(dir, name))
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	pkg, err := l.typecheck(asPath, paths)
	if err != nil {
		return nil, err
	}
	l.dirCache[key] = pkg
	return pkg, nil
}

// typecheck parses the files and type-checks them as one package,
// resolving imports from export data (fetched on demand).
func (l *Loader) typecheck(path string, filePaths []string) (*Package, error) {
	var files []*ast.File
	var imports []string
	for _, fp := range filePaths {
		f, err := parser.ParseFile(l.fset, fp, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				imports = append(imports, p)
			}
		}
	}
	if err := l.ensure(imports); err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, err)
	}
	return &Package{
		Path:  path,
		Name:  tpkg.Name(),
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
