// Package determinism guards the repo's bitwise-reproducibility
// contract. Execute mode, the trace subsystem, and the
// BENCH_fouridx.json emission are all gated on runs being byte-stable;
// the two classic ways Go code silently breaks that are map iteration
// order reaching an output and wall-clock or process-seeded randomness
// leaking into results. Both are flagged statically:
//
// Map ranges: a `for ... range m` over a map is fine while its body is
// order-independent. The analyzer flags bodies whose effects depend on
// iteration order — appends into an outer slice that is not sorted
// afterwards (the collect-then-sort idiom is recognized), float or
// string accumulation (rounding and concatenation do not commute),
// last-writer-wins assignments of the key or value into outer
// variables, returns of the key or value, channel sends, and emission
// calls (fmt printing, Write*/Encode* methods, trace.Tracer methods).
// Integer accumulation, keyed stores (m2[k] = v), and existence checks
// remain clean.
//
// Wall clock and randomness: time.Now and friends, plus the
// process-seeded package-level math/rand functions, are flagged
// everywhere outside the experiments harness (generalizing metricsdiscipline's rule, which only covers
// scopes holding metrics.Counters or trace.Tracer). Explicitly seeded
// generators (rand.New(rand.NewSource(seed))) are deterministic and
// stay clean.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fourindex/internal/analysis"
)

// Analyzer is the determinism analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "map iteration order and wall-clock/random values must not reach results, trace events, or benchmark emission",
	Run:  run,
}

// wallClock lists the time package's nondeterministic entry points.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// seededConstructors are the math/rand functions that build explicitly
// seeded (hence deterministic) generators.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	exempt := clockExempt(pass.Pkg.Path())
	for _, file := range pass.Files {
		if !exempt {
			checkClock(pass, file)
		}
		for _, scope := range analysis.FuncScopes(file) {
			checkMapRanges(pass, scope)
		}
	}
	return nil
}

// clockExempt reports whether the package may read wall clocks and
// draw process-seeded randomness: only the experiments reporting
// harness. The benchmark harness (internal/perf) is not exempt; its
// report is deterministic.
func clockExempt(path string) bool {
	return strings.Contains(path, "experiments")
}

// checkClock flags wall-clock and process-seeded randomness calls.
func checkClock(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() != nil {
			return true // methods (e.g. on a seeded *rand.Rand) are fine
		}
		switch fn.Pkg().Path() {
		case "time":
			if wallClock[fn.Name()] {
				pass.Reportf(call.Pos(), "wall-clock time.%s outside the experiments harness; results and traces must be bit-reproducible", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !seededConstructors[fn.Name()] {
				pass.Reportf(call.Pos(), "process-seeded rand.%s outside the experiments harness; use an explicitly seeded rand.New(rand.NewSource(seed))", fn.Name())
			}
		}
		return true
	})
}

// checkMapRanges inspects every map range in scope's own statements.
func checkMapRanges(pass *analysis.Pass, scope analysis.FuncScope) {
	scope.InspectOwn(func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); isMap {
			checkMapBody(pass, scope, rng)
		}
		return true
	})
}

// checkMapBody flags order-dependent effects in one map-range body.
func checkMapBody(pass *analysis.Pass, scope analysis.FuncScope, rng *ast.RangeStmt) {
	info := pass.TypesInfo

	kv := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if e == nil {
			continue
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				kv[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				kv[obj] = true
			}
		}
	}
	mentionsKV := func(e ast.Node) bool {
		found := false
		ast.Inspect(e, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && kv[obj] {
					found = true
				}
			}
			return true
		})
		return found
	}
	outer := func(obj types.Object) bool {
		return obj != nil && (obj.Pos() < rng.Pos() || obj.Pos() > rng.End())
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			checkAssign(pass, scope, rng, s, outer, mentionsKV)
		case *ast.SendStmt:
			pass.Reportf(s.Pos(), "channel send inside a map range; receive order depends on map iteration order")
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if mentionsKV(res) {
					pass.Reportf(s.Pos(), "returning the key or value of a map range; which element wins depends on iteration order — iterate sorted keys")
					break
				}
			}
		case *ast.CallExpr:
			if emits(info, s) {
				pass.Reportf(s.Pos(), "emission call inside a map range; output order depends on map iteration order — iterate sorted keys")
			}
		}
		return true
	})
}

// checkAssign classifies one assignment inside a map-range body.
func checkAssign(pass *analysis.Pass, scope analysis.FuncScope, rng *ast.RangeStmt, s *ast.AssignStmt, outer func(types.Object) bool, mentionsKV func(ast.Node) bool) {
	info := pass.TypesInfo
	if len(s.Lhs) != len(s.Rhs) && len(s.Rhs) != 1 {
		return
	}
	for i, lhs := range s.Lhs {
		rhs := s.Rhs[0]
		if len(s.Lhs) == len(s.Rhs) {
			rhs = s.Rhs[i]
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := info.Uses[l]
			if obj == nil || !outer(obj) {
				continue
			}
			// collect-then-sort: append into an outer slice
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isAppendTo(info, call, obj) {
				if !sortedAfter(info, scope, rng, obj) {
					pass.Reportf(s.Pos(), "append to %q inside a map range without sorting it afterwards; element order depends on map iteration order", obj.Name())
				}
				continue
			}
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
				// compound accumulation: x op= e
				reportNoncommutative(pass, s, obj, s.Tok)
				continue
			}
			if bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr); ok && rootIs(info, bin.X, obj) {
				// spelled-out accumulation: x = x op e
				reportNoncommutative(pass, s, obj, assignTokFor(bin.Op))
				continue
			}
			if mentionsKV(rhs) {
				pass.Reportf(s.Pos(), "assignment of a map range's key or value to %q; the last iteration wins, which depends on iteration order", obj.Name())
			}
		case *ast.IndexExpr:
			// keyed stores (out[k] = v) are order-independent; an index
			// that does not involve the key is a last-writer-wins slot
			if !mentionsKV(l.Index) && mentionsKV(rhs) {
				pass.Reportf(s.Pos(), "store of a map range's key or value at a fixed index; the last iteration wins, which depends on iteration order")
			}
		}
	}
}

// reportNoncommutative flags accumulation whose result depends on
// evaluation order: floating-point rounding and string concatenation.
// Integer and bitwise accumulation with commutative operators is clean.
func reportNoncommutative(pass *analysis.Pass, s *ast.AssignStmt, obj types.Object, tok token.Token) {
	commutative := tok == token.ADD_ASSIGN || tok == token.MUL_ASSIGN ||
		tok == token.OR_ASSIGN || tok == token.AND_ASSIGN || tok == token.XOR_ASSIGN
	basic, ok := obj.Type().Underlying().(*types.Basic)
	if !ok {
		return
	}
	switch {
	case basic.Info()&types.IsFloat != 0 || basic.Info()&types.IsComplex != 0:
		pass.Reportf(s.Pos(), "floating-point accumulation into %q inside a map range; rounding depends on iteration order — accumulate over sorted keys", obj.Name())
	case basic.Info()&types.IsString != 0:
		pass.Reportf(s.Pos(), "string concatenation into %q inside a map range; the result depends on iteration order — iterate sorted keys", obj.Name())
	case !commutative && basic.Info()&types.IsInteger != 0:
		pass.Reportf(s.Pos(), "non-commutative accumulation into %q inside a map range; the result depends on iteration order", obj.Name())
	}
}

// assignTokFor maps a binary operator to its compound-assign token.
func assignTokFor(op token.Token) token.Token {
	switch op {
	case token.ADD:
		return token.ADD_ASSIGN
	case token.SUB:
		return token.SUB_ASSIGN
	case token.MUL:
		return token.MUL_ASSIGN
	case token.QUO:
		return token.QUO_ASSIGN
	case token.OR:
		return token.OR_ASSIGN
	case token.AND:
		return token.AND_ASSIGN
	case token.XOR:
		return token.XOR_ASSIGN
	}
	return token.ASSIGN
}

// isAppendTo matches append(obj, ...) growing the same variable.
func isAppendTo(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return false
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && info.Uses[first] == obj
}

// sortedAfter recognizes the collect-then-sort idiom: a call into the
// sort or slices package mentioning obj somewhere after the range
// statement in the same function body.
func sortedAfter(info *types.Info, scope analysis.FuncScope, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	scope.InspectOwn(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := analysis.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if usesObj(info, arg, obj) {
				found = true
			}
		}
		return true
	})
	return found
}

// emits matches calls that push bytes or events toward an output:
// fmt printing, Write*/Encode*/Marshal* methods, and trace.Tracer
// methods.
func emits(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	if sig.Recv() == nil {
		return fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
			(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint"))
	}
	if analysis.NamedTypeIs(sig.Recv().Type(), "trace", "Tracer") {
		return true
	}
	name := fn.Name()
	return strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Encode") || strings.HasPrefix(name, "Marshal")
}

// rootIs reports whether e is (a parenthesization of) the identifier
// bound to obj.
func rootIs(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && info.Uses[id] == obj
}

// usesObj reports whether n mentions obj.
func usesObj(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}
