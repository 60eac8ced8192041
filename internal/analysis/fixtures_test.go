package analysis_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/antest"
)

func fixture(dir string) string {
	return filepath.Join("testdata", "src", dir)
}

func TestRetainFixture(t *testing.T) {
	antest.Run(t, analysis.Retain, fixture("retain"),
		"repro/internal/analysis/testdata/src/retain")
}

func TestHashCoverFixtures(t *testing.T) {
	// Every fixture poses as a different synthetic import path: hashcover
	// anchors on the package name and Spec struct, exactly like the real
	// repro/internal/scenario package.
	for _, dir := range []string{
		"hashcover_ok",
		"hashcover_missing",
		"hashcover_stale",
		"hashcover_undeclared",
	} {
		dir := dir
		t.Run(dir, func(t *testing.T) {
			antest.Run(t, analysis.HashCover, fixture(dir), "fix/"+dir)
		})
	}
}

func TestDeterminismFixture(t *testing.T) {
	// Posing as a deterministic-core package, the fixture's wants fire.
	antest.Run(t, analysis.Determinism, fixture("determinism"), analysis.CorePackages[0])
}

func TestDeterminismIgnoresNonCorePackages(t *testing.T) {
	// The same nondeterministic code outside the core is out of scope:
	// parallelism and wall-clock time belong to the sweep/server layers.
	pkg, err := antest.Loader().LoadDir(fixture("determinism"), "repro/internal/experiments/fixture")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{analysis.Determinism})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("determinism fired outside the core: %s", d)
	}
}

func TestSrcErrFixture(t *testing.T) {
	antest.Run(t, analysis.SrcErr, fixture("srcerr"),
		"repro/internal/analysis/testdata/src/srcerr")
}

func TestDeadExportFixture(t *testing.T) {
	// Through All(), so dropping the analyzer from the suite fails here
	// as well as in TestRepoClean's silence.
	var a *analysis.Analyzer
	for _, x := range analysis.All() {
		if x.Name == "deadexport" {
			a = x
		}
	}
	if a == nil {
		t.Fatal("deadexport is not in analysis.All()")
	}
	// The fixture poses as a package under internal/; nothing in the
	// module imports it, so only its own references count.
	antest.Run(t, a, fixture("deadexport"),
		"repro/internal/analysis/testdata/src/deadexport")
}

func TestDeadExportOnSubset(t *testing.T) {
	// Every export of these packages is referenced only from other
	// packages, none of which is loaded: the references come from the
	// module scan, not from the analyzed set.
	pkgs, err := antest.Loader().Load("repro/internal/stats", "repro/internal/cluster")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{analysis.DeadExport})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("deadexport on a subset: %s", d)
	}
}
