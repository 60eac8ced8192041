package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// DeadExport keeps library surface that nothing runs out of internal/:
// it reports an exported package-level identifier (func, type, var or
// const; methods and fields are out of scope) declared in a non-test file
// of a package under the module's internal/ tree when no non-test file of
// the module references it outside its own declaration. A type's
// declaration includes its methods; a blank assertion such as
// `var _ I = (*T)(nil)` is not a reference. Packages whose non-test files
// import "testing" (test helpers such as antest) are skipped.
//
// References from other packages are read syntactically from every
// non-test file of the working directory's module, whichever packages
// are being analyzed, so a run over a subset of the module reports
// nothing the whole run would not. A nested module (bench/) is outside
// the module and does not keep an identifier alive. Dot imports are not
// followed.
//
// An identifier kept on purpose (a cross-package test accessor, data a
// later reader is planned for) is waived with //lint:deadexport
// <justification> on its line or the line above; on the line above a
// parenthesized const/var/type group, a justified escape waives the
// whole group.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "exported identifiers under internal/ must be referenced by a non-test file of the module",
	Run:  runDeadExport,
}

func runDeadExport(pass *Pass) error {
	mod, err := moduleIndex()
	if err != nil {
		return err
	}
	if !strings.HasPrefix(pass.Pkg.Path(), mod.path+"/internal/") {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"testing"` {
				return nil
			}
		}
	}

	var cands []*ast.Ident
	live := make(map[types.Object]bool)
	// markUses records the package-level objects node references, except
	// the ones it declares itself.
	markUses := func(node ast.Node, own ...types.Object) {
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil && obj.Parent() == pass.Pkg.Scope() && !slices.Contains(own, obj) {
					live[obj] = true
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					cands = append(cands, d.Name)
					markUses(d, pass.Info.Defs[d.Name])
					continue
				}
				// A method is part of its receiver type's declaration.
				recv := pass.Info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				markUses(d, recv.(*types.Named).Obj())
			case *ast.GenDecl:
				e := pass.escapeFor(pass.Fset.Position(d.Pos()))
				waived := e != nil && e.just != ""
				for _, spec := range d.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					var own []types.Object
					for _, id := range names {
						if id.Name != "_" {
							own = append(own, pass.Info.Defs[id])
							if !waived {
								cands = append(cands, id)
							}
						}
					}
					if len(own) > 0 { // an all-blank spec is an assertion
						markUses(spec, own...)
					}
				}
			}
		}
	}
	for _, id := range cands {
		if id.IsExported() && !live[pass.Info.Defs[id]] && !mod.refs[pass.Pkg.Path()+"."+id.Name] {
			pass.Reportf(id.Pos(), "%s is exported but no non-test file of the module references it: delete it or move it into a _test.go file", id.Name)
		}
	}
	return nil
}

// modRefs indexes the cross-package references of one module.
type modRefs struct {
	path string          // module path
	refs map[string]bool // "import/path.Name" selected by a non-test file
}

// moduleIndex indexes the main module of the working directory, once per
// process. `go list` names the files, so testdata, nested modules and
// files a build constraint excludes stay out, as everywhere in the go
// tool.
var moduleIndex = sync.OnceValues(func() (*modRefs, error) {
	out, err := exec.Command("go", "list", "-m").Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list -m: %v", err)
	}
	m := &modRefs{path: strings.TrimSpace(string(out)), refs: make(map[string]bool)}
	out, err = exec.Command("go", "list", "-e", "-json=ImportPath,Name,Dir,GoFiles", m.path+"/...").Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s/...: %v", m.path, err)
	}
	var pkgs []listPkg
	names := make(map[string]string) // import path → package name
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
		names[p.ImportPath] = p.Name
	}
	fset := token.NewFileSet()
	for _, p := range pkgs {
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("analysis: %v", err)
			}
			local := make(map[string]string) // name in f → module import path
			for _, spec := range f.Imports {
				imp := strings.Trim(spec.Path.Value, "\"`")
				if name, ok := names[imp]; ok && spec.Name == nil {
					local[name] = imp
				} else if ok {
					local[spec.Name.Name] = imp
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.ValueSpec: // an all-blank spec is an assertion, not a reference
					return slices.ContainsFunc(x.Names, func(id *ast.Ident) bool { return id.Name != "_" })
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && local[id.Name] != "" {
						m.refs[local[id.Name]+"."+x.Sel.Name] = true
					}
				}
				return true
			})
		}
	}
	return m, nil
})
