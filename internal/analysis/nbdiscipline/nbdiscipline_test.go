package nbdiscipline_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"fourindex/internal/analysis"
	"fourindex/internal/analysis/analysistest"
	"fourindex/internal/analysis/nbdiscipline"
)

func TestNbDiscipline(t *testing.T) {
	analysistest.Run(t, nbdiscipline.Analyzer, "./testdata/src/nb")
}

// TestNbFlow checks the nbflow fixture's want comments.
func TestNbFlow(t *testing.T) {
	analysistest.Run(t, nbdiscipline.Analyzer, "./testdata/src/nbflow")
}

// TestLegacyMissesFlowCases pins the findings that a lexical,
// source-order check would miss: every path leak and in-flight buffer
// read on the nbflow fixture is reported, although its function has a
// Wait or WaitAll after the issue line. Only the control-flow graph
// exposes them.
func TestLegacyMissesFlowCases(t *testing.T) {
	flow := diagsFor(t, nbdiscipline.Analyzer, "./testdata/src/nbflow")
	leaks, bufReads := 0, 0
	for _, d := range flow {
		pathOnly := false
		if strings.Contains(d.Message, "does not reach Wait") {
			leaks++
			pathOnly = true
		}
		if strings.Contains(d.Message, "before the handle's Wait") {
			bufReads++
			pathOnly = true
		}
		if pathOnly && !waitFollows(t, d.Pos) {
			t.Errorf("%s: no Wait after the issue in source order; a lexical check would catch it too", d)
		}
	}
	if leaks < 2 || bufReads < 1 {
		t.Errorf("flow analyzer found %d path leaks and %d in-flight buffer reads; want >=2 and >=1", leaks, bufReads)
	}
}

// waitFollows reports whether the function enclosing pos calls Wait or
// WaitAll on a line after pos.
func waitFollows(t *testing.T, pos token.Position) bool {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, pos.Filename, nil, 0)
	if err != nil {
		t.Fatalf("parsing %s: %v", pos.Filename, err)
	}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fset.Position(fn.Pos()).Line > pos.Line || fset.Position(fn.End()).Line < pos.Line {
			continue
		}
		found := false
		ast.Inspect(fn, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Wait" || sel.Sel.Name == "WaitAll") &&
				fset.Position(call.Pos()).Line > pos.Line {
				found = true
			}
			return !found
		})
		return found
	}
	return false
}

// TestSuppression checks the //lint:ignore contract on the nbsuppress
// fixture: a justified directive suppresses, an unjustified one fails
// loudly, and a directive for another analyzer does not apply.
func TestSuppression(t *testing.T) {
	diags := diagsFor(t, nbdiscipline.Analyzer, "./testdata/src/nbsuppress")

	// The justified call must produce nothing, so only two nbdiscipline
	// discards may survive (unjustified + wrong-analyzer).
	var unjustifiedDir int
	discards, ignores := 0, 0
	for _, d := range diags {
		switch d.Analyzer {
		case "nbdiscipline":
			discards++
		case analysis.SuppressionAnalyzer:
			ignores++
			unjustifiedDir = d.Pos.Line
		}
	}
	if discards != 2 {
		t.Errorf("got %d nbdiscipline findings, want 2 (unjustified + wrong-analyzer; justified suppressed): %v", discards, diags)
	}
	if ignores != 1 {
		t.Errorf("got %d lintignore findings, want 1 for the unjustified directive: %v", ignores, diags)
	}
	// The unjustified directive's finding must sit directly above a
	// surviving discard: suppression failed loudly, not silently.
	foundPair := false
	for _, d := range diags {
		if d.Analyzer == "nbdiscipline" && d.Pos.Line == unjustifiedDir+1 {
			foundPair = true
		}
	}
	if !foundPair {
		t.Errorf("unjustified directive at line %d did not leave the next-line finding in place: %v", unjustifiedDir, diags)
	}
}

// diagsFor loads one fixture package and runs a single analyzer.
func diagsFor(t *testing.T, a *analysis.Analyzer, dir string) []analysis.Diagnostic {
	t.Helper()
	pkgs, err := analysis.Load("", dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	var out []analysis.Diagnostic
	for _, pkg := range pkgs {
		ds, err := analysis.RunPackage([]*analysis.Analyzer{a}, pkg)
		if err != nil {
			t.Fatalf("running on %s: %v", pkg.ImportPath, err)
		}
		out = append(out, ds...)
	}
	return out
}
