package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// HashCover enforces the scenario-hash coverage contract: the canonical
// SHA-256 content hash (internal/scenario/hash.go) is the cache and
// sharding key of cmd/schedd, so a scenario.Spec field the hash silently
// ignores poisons every key derived from it. The package must declare,
// next to contentHash, two maps:
//
//	var hashedVia   = map[string]string{...} // Spec field → Scenario field carrying it into the hash
//	var hashNeutral = map[string]string{...} // Spec field → why it provably cannot change Results
//
// and the analyzer fails unless (a) every Spec field appears in exactly
// one of them, (b) every key names a real Spec field (no stale entries
// surviving a rename), and (c) every Scenario field named by hashedVia
// is actually read by contentHash. Adding a Spec field without deciding
// its hash status is therefore a build error, caught by the driver test
// under plain `go test ./...`.
//
// The analyzer anchors on any package named "scenario" declaring a Spec
// struct, so its own fixtures exercise the same code path as the real
// repro/internal/scenario package.
var HashCover = &Analyzer{
	Name: "hashcover",
	Doc:  "every scenario.Spec field must be hashed or explicitly allowlisted as result-neutral",
	Run:  runHashCover,
}

func runHashCover(pass *Pass) error {
	if pass.Pkg.Name() != "scenario" {
		return nil
	}
	spec := findStruct(pass, "Spec")
	if spec == nil {
		return nil // not a scenario package in the sense of this contract
	}

	// The declaration maps. Their absence is the first finding: the
	// contract cannot be verified without them.
	hashed, hashedEntries := mapLiteral(pass, "hashedVia")
	neutral, neutralEntries := mapLiteral(pass, "hashNeutral")
	if hashedEntries == nil && neutralEntries == nil {
		pass.Reportf(spec.pos,
			"package scenario declares no hashedVia/hashNeutral coverage maps next to contentHash; hashcover cannot verify that every Spec field has a decided hash status")
		return nil
	}

	// (a) every Spec field is declared exactly once.
	fields := specFields(spec.typ)
	fieldSet := map[string]bool{}
	for _, f := range fields {
		fieldSet[f.name] = true
		inHashed := hashed[f.name] != ""
		_, inNeutral := neutral[f.name]
		switch {
		case inHashed && inNeutral:
			pass.Reportf(f.pos,
				"scenario.Spec field %s is declared both hashed (hashedVia) and result-neutral (hashNeutral); it must be exactly one", f.name)
		case !inHashed && !inNeutral:
			pass.Reportf(f.pos,
				"scenario.Spec field %s is neither folded into the canonical hash (hashedVia) nor in the documented result-neutral allowlist (hashNeutral): decide its hash status — see the coverage comment block in hash.go", f.name)
		}
	}

	// (b) no stale declaration entries.
	for name, pos := range hashedEntries {
		if !fieldSet[name] {
			pass.Reportf(pos, "hashedVia entry %q names no scenario.Spec field (stale after a rename?)", name)
		}
	}
	for name, pos := range neutralEntries {
		if !fieldSet[name] {
			pass.Reportf(pos, "hashNeutral entry %q names no scenario.Spec field (stale after a rename?)", name)
		}
	}
	for name, pos := range neutralEntries {
		if just, ok := neutral[name]; ok && just == "" {
			pass.Reportf(pos, "hashNeutral entry %q carries no justification; record why the field provably cannot change Results", name)
		}
	}

	// (c) every carrier field hashedVia names is actually written into
	// the hash by contentHash.
	carriers := contentHashReads(pass)
	if carriers == nil {
		pass.Reportf(spec.pos, "package scenario declares hash coverage maps but no contentHash method to check them against")
		return nil
	}
	reported := map[string]bool{}
	for field, carrier := range hashed {
		if !carriers[carrier] && !reported[field] {
			reported[field] = true
			pass.Reportf(hashedEntries[field],
				"hashedVia says Spec.%s flows into the hash through Scenario field %q, but contentHash never reads s.%s", field, carrier, carrier)
		}
	}
	return nil
}

// structDecl is a located struct type declaration.
type structDecl struct {
	typ *ast.StructType
	pos token.Pos
}

// specField is one named field of the Spec struct.
type specField struct {
	name string
	pos  token.Pos
}

// findStruct locates a top-level struct type declaration by name.
func findStruct(pass *Pass, name string) *structDecl {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				ts, ok := s.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return &structDecl{typ: st, pos: ts.Pos()}
				}
			}
		}
	}
	return nil
}

// specFields lists the named fields of the struct. Every field is
// checked regardless of JSON visibility: the json:"-" escape hatches
// (pre-resolved objects such as GearPolicy) decide results just as much as
// the wire-format fields and need a declared hash status too.
func specFields(st *ast.StructType) []specField {
	var out []specField
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			out = append(out, specField{name: n.Name, pos: n.Pos()})
		}
	}
	return out
}

// mapLiteral reads a package-level `var name = map[string]string{...}`
// declaration, returning key→value and key→position. Both are nil when
// the variable is missing or not a literal map.
func mapLiteral(pass *Pass, name string) (map[string]string, map[string]token.Pos) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, s := range gd.Specs {
				vs, ok := s.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					if id.Name != name || i >= len(vs.Values) {
						continue
					}
					cl, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					vals := map[string]string{}
					poss := map[string]token.Pos{}
					for _, elt := range cl.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						k, ok1 := stringLit(kv.Key)
						v, ok2 := stringLit(kv.Value)
						if !ok1 || !ok2 {
							continue
						}
						vals[k] = v
						poss[k] = kv.Pos()
					}
					return vals, poss
				}
			}
		}
	}
	return nil, nil
}

func stringLit(e ast.Expr) (string, bool) {
	bl, ok := unparen(e).(*ast.BasicLit)
	if !ok || bl.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(bl.Value)
	return s, err == nil
}

// contentHashReads returns the set of Scenario fields the contentHash
// method reads (every selector on a Scenario-typed expression in its
// body), or nil when no contentHash method exists.
func contentHashReads(pass *Pass) map[string]bool {
	scenObj := pass.Pkg.Scope().Lookup("Scenario")
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "contentHash" || fn.Recv == nil || fn.Body == nil {
				continue
			}
			reads := map[string]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				t := pass.Info.TypeOf(sel.X)
				if t == nil || scenObj == nil {
					return true
				}
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if types.Identical(t, scenObj.Type()) {
					reads[sel.Sel.Name] = true
				}
				return true
			})
			return reads
		}
	}
	return nil
}
