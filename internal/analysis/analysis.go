// Package analysis implements reprovet, the repo's custom static-analysis
// suite: compiler-grade checks for the correctness contracts that the
// runtime verification spine (the reference simulator, differential
// suites, golden tables) cannot see because they are conventions between packages, not
// behaviors of one run.
//
// Five analyzers (see All):
//
//   - retain: recorders must not retain pooled *sched.RunState values (or
//     slices reachable from them) past their lifecycle callbacks — the
//     scheduler recycles them after JobFinished.
//   - hashcover: every scenario.Spec field must have a declared hash
//     status in internal/scenario/hash.go — folded into the canonical
//     content hash or explicitly allowlisted as result-neutral.
//   - determinism: the deterministic core packages must stay free of
//     nondeterminism sources (map-order iteration, wall-clock time,
//     global math/rand, goroutine spawns).
//   - srcerr: workload.JobSource drain loops must check Err(), and error
//     results must not be discarded with a blank identifier.
//   - deadexport: an exported package-level identifier under internal/
//     must be referenced by a non-test file of the module outside its own
//     declaration.
//
// The suite runs three ways: `go test ./internal/analysis` (the clean-run
// driver test, so tier-1 catches violations), `go run ./cmd/reprovet ./...`
// (the CI gate, -json for machine-readable output), and per-analyzer
// fixture tests under testdata/src.
//
// A finding can be waived with an escape comment on the flagged line or
// the line directly above it:
//
//	//lint:<analyzer> <justification>
//
// deadexport also accepts a justified escape on or above the line that
// opens a parenthesized const/var/type group, waiving every name in it. The
// justification is mandatory: an escape without one does not suppress
// the finding and the diagnostic calls the omission out.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// API shape (Analyzer/Pass/Reportf) but is built on the standard library
// only: packages load through `go list -export` and type-check against
// compiler export data, so the module needs no external dependencies.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run inspects a single type-checked
// package through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	// Escape overrides the //lint:<name> escape-comment name when it
	// differs from the analyzer name (e.g. determinism waives findings
	// via //lint:nondeterm). Empty means Name.
	Escape string
	Run    func(*Pass) error
}

// escapeName is the //lint: directive name that waives this analyzer.
func (a *Analyzer) escapeName() string {
	if a.Escape != "" {
		return a.Escape
	}
	return a.Name
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
// The JSON form is the machine-readable output of `cmd/reprovet -json`.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// A Pass carries one analyzer's view of one package: the parsed files,
// the type-checked package object and its expression/object tables.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	escapes map[string]map[int]*escape // file → line → escape comment
	diags   []Diagnostic
}

// escape is one //lint:<name> <justification> comment.
type escape struct {
	name string
	just string
}

var escapeRe = regexp.MustCompile(`^//lint:([a-z]+)(?:[ \t]+(.*))?$`)

// indexEscapes scans the package's comments for escape directives so
// Reportf can match findings against them by line.
func (p *Pass) indexEscapes() {
	p.escapes = make(map[string]map[int]*escape)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := escapeRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				lines := p.escapes[pos.Filename]
				if lines == nil {
					lines = make(map[int]*escape)
					p.escapes[pos.Filename] = lines
				}
				lines[pos.Line] = &escape{name: m[1], just: strings.TrimSpace(m[2])}
			}
		}
	}
}

// escapeFor returns the escape directive governing a finding of this
// analyzer at the given position: on the same line or the line above.
func (p *Pass) escapeFor(pos token.Position) *escape {
	lines := p.escapes[pos.Filename]
	if lines == nil {
		return nil
	}
	for _, ln := range [2]int{pos.Line, pos.Line - 1} {
		if e := lines[ln]; e != nil && e.name == p.Analyzer.escapeName() {
			return e
		}
	}
	return nil
}

// Reportf records a finding unless a justified escape comment waives it.
// An escape without a justification does not suppress: the finding is
// reported with the omission appended, so the justification requirement
// is itself machine-checked.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	msg := fmt.Sprintf(format, args...)
	if e := p.escapeFor(position); e != nil {
		if e.just != "" {
			return
		}
		msg += fmt.Sprintf(" (//lint:%s escape present but lacks the required justification)", p.Analyzer.escapeName())
	}
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  msg,
	})
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			pass.indexEscapes()
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
			out = append(out, pass.diags...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// All returns the full reprovet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Retain, HashCover, Determinism, SrcErr, DeadExport}
}

// unparen strips parentheses (ast.Unparen needs a newer toolchain than
// the module's go directive guarantees).
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// findPackage locates an imported package by path in the import graph of
// pkg (including pkg itself), or nil if the package never reaches it.
func findPackage(pkg *types.Package, path string) *types.Package {
	if pkg.Path() == path {
		return pkg
	}
	seen := map[*types.Package]bool{pkg: true}
	queue := pkg.Imports()
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if seen[p] {
			continue
		}
		seen[p] = true
		if p.Path() == path {
			return p
		}
		queue = append(queue, p.Imports()...)
	}
	return nil
}

// lookupInterface resolves a named interface type from a package scope.
func lookupInterface(pkg *types.Package, name string) *types.Interface {
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// implementsEither reports whether T or *T implements the interface.
func implementsEither(t types.Type, iface *types.Interface) bool {
	if iface == nil || t == nil {
		return false
	}
	if types.Implements(t, iface) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}
