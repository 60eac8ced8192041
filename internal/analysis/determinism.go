package analysis

import (
	"go/ast"
	"go/types"
)

// CorePackages is the deterministic core: every path through these
// packages must schedule byte-identically across runs, hosts and
// worker counts — the property the whole verification spine (reference
// simulator, golden tables, differential suites) asserts. Determinism
// flags the constructs that silently break it.
var CorePackages = []string{
	"repro/internal/sched",
	"repro/internal/profile",
	"repro/internal/sim",
	"repro/internal/cluster",
	"repro/internal/scenario",
}

// Determinism forbids nondeterminism sources in the deterministic core
// (CorePackages, non-test code):
//
//   - iterating a map with the key or value observed (Go randomizes the
//     order; collect and sort instead),
//   - wall-clock time (time.Now and friends — simulated time comes from
//     the event clock),
//   - the process-global math/rand source (seed an explicit *rand.Rand;
//     rand.New/NewSource and *rand.Rand methods are fine),
//   - goroutine spawns (scheduling interleavings are nondeterministic;
//     parallelism belongs in the sweep/server layers above the core).
//
// A provably order-insensitive use can be waived with
// //lint:nondeterm <justification> on the flagged line or the line
// above; the justification is mandatory.
var Determinism = &Analyzer{
	Name:   "determinism",
	Escape: "nondeterm",
	Doc:    "the deterministic core must stay free of nondeterminism sources",
	Run:    runDeterminism,
}

// bannedTimeFuncs are the wall-clock entry points of package time.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// allowedRandFuncs are the math/rand package-level constructors that
// build explicitly-seeded generators rather than using the global source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func runDeterminism(pass *Pass) error {
	core := false
	for _, p := range CorePackages {
		if pass.Pkg.Path() == p {
			core = true
			break
		}
	}
	if !core {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(x.Pos(),
					"goroutine spawned in deterministic core package %s: interleavings are nondeterministic and break bit-identity; keep parallelism in the sweep/server layers", pass.Pkg.Path())
			case *ast.RangeStmt:
				checkMapRange(pass, x)
			case *ast.SelectorExpr:
				checkBannedSelector(pass, x)
			}
			return true
		})
	}
	return nil
}

// checkMapRange flags map iterations that observe the key or value.
// `for range m` (counting) is deterministic and allowed.
func checkMapRange(pass *Pass, r *ast.RangeStmt) {
	t := pass.Info.TypeOf(r.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	observes := func(e ast.Expr) bool {
		if e == nil {
			return false
		}
		if id, ok := unparen(e).(*ast.Ident); ok && id.Name == "_" {
			return false
		}
		return true
	}
	if !observes(r.Key) && !observes(r.Value) {
		return
	}
	pass.Reportf(r.Pos(),
		"iterates map %s with the key or value observed: map order is nondeterministic and poisons results downstream; iterate a sorted copy of the keys", types.ExprString(r.X))
}

// checkBannedSelector flags package-level time/math-rand functions.
func checkBannedSelector(pass *Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. on an explicitly seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTimeFuncs[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"time.%s in deterministic core package %s: simulated time must come from the event clock, never the wall clock", fn.Name(), pass.Pkg.Path())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"%s.%s uses the process-global random source: seed an explicit *rand.Rand (rand.New(rand.NewSource(seed))) so runs replay identically", fn.Pkg().Path(), fn.Name())
		}
	}
}
