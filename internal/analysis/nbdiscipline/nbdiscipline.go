// Package nbdiscipline enforces the completion discipline of the ga
// runtime's nonblocking verbs. A *ga.Handle from NbGetT/NbPutT/NbAccT
// carries deferred work and a staging-memory charge that only Wait (or
// WaitAll) releases; a handle that never reaches a wait leaks staging
// memory, and one that crosses a barrier lets deferred work move past a
// synchronisation point — both are runtime panics, but only on paths a
// test happens to execute.
//
// The analyzer is flow-sensitive: each function body is lowered to a
// control-flow graph (internal/analysis/cfg) and each check is a path
// query from the handle's issue site. Checks:
//
//  1. A call producing a *ga.Handle must not discard its result: an
//     unwaitable handle can never be completed.
//  2. A handle bound to a variable must reach Handle.Wait, Proc.WaitAll,
//     or an ownership escape (returned, stored, aliased, sent, passed to
//     another function, or captured by a closure) on EVERY path out of
//     the function — an early return or error branch that skips the wait
//     is reported with the line the leaking path exits on.
//  3. No Proc.Barrier may be reachable between a handle's issue and its
//     first wait on any path: region exit is itself a barrier, so a
//     handle must complete before any barrier the process crosses.
//  4. The destination buffer of a direct NbGetT must not be read on any
//     path before the handle's Wait: until then its contents are
//     undefined in-flight data. (Only whole-buffer arguments are
//     tracked; sub-slices of a shared staging block, the double-buffer
//     idiom, cannot be proven to overlap and are left to the runtime's
//     own checks.)
//
// A deferred Wait counts as a wait for every path that passes the defer
// statement.
package nbdiscipline

import (
	"go/ast"
	"go/types"

	"fourindex/internal/analysis"
	"fourindex/internal/analysis/cfg"
)

// Analyzer is the flow-sensitive nbdiscipline analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "nbdiscipline",
	Doc:  "nonblocking *ga.Handle values must reach Wait/WaitAll on every path, before any barrier, and their get-buffers must not be read in flight",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, scope := range analysis.FuncScopes(file) {
			checkScope(pass, scope)
		}
	}
	return nil
}

// issueSite is one collected handle-producing call bound to a variable.
type issueSite struct {
	pos  cfg.Pos
	call *ast.CallExpr
	obj  types.Object
	// buf is the destination buffer of a direct NbGetT when it is a
	// plain identifier, nil otherwise.
	buf types.Object
}

// checkScope runs the flow-sensitive checks over one function body.
func checkScope(pass *analysis.Pass, scope analysis.FuncScope) {
	info := pass.TypesInfo
	g := cfg.New(scope.Body)

	var issues []issueSite
	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			call, obj, discarded := bindingForm(info, n)
			if call == nil {
				continue
			}
			if discarded {
				pass.Reportf(call.Pos(), "nonblocking handle from %s is discarded; it can never reach Wait", callName(info, call))
				continue
			}
			is := issueSite{pos: cfg.Pos{Block: blk, Index: i}, call: call, obj: obj}
			if analysis.IsMethodCall(info, call, "ga", "Proc", "NbGetT") && len(call.Args) >= 2 {
				if id, ok := ast.Unparen(call.Args[1]).(*ast.Ident); ok {
					is.buf = info.Uses[id]
				}
			}
			issues = append(issues, is)
		}
	}

	for _, is := range issues {
		checkIssue(pass, g, is)
	}
}

// bindingForm matches the three statement shapes that bind or discard a
// handle-producing call: h := f(...) / h = f(...), _ = f(...) or a bare
// f(...), and var h = f(...). Any other context (return f(...), g(f(...)),
// append(hs, f(...))) escapes the handle at the issue itself and needs
// no tracking.
func bindingForm(info *types.Info, n ast.Node) (call *ast.CallExpr, obj types.Object, discarded bool) {
	switch stmt := n.(type) {
	case *ast.AssignStmt:
		if len(stmt.Rhs) != 1 {
			return nil, nil, false
		}
		c, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
		if !ok || !returnsHandle(info, c) {
			return nil, nil, false
		}
		if o := lhsObject(info, stmt.Lhs[0]); o != nil {
			return c, o, false
		}
		if id, ok := ast.Unparen(stmt.Lhs[0]).(*ast.Ident); ok && id.Name == "_" {
			return c, nil, true
		}
	case *ast.ExprStmt:
		if c, ok := ast.Unparen(stmt.X).(*ast.CallExpr); ok && returnsHandle(info, c) {
			return c, nil, true
		}
	case *ast.DeclStmt:
		gd, ok := stmt.Decl.(*ast.GenDecl)
		if !ok {
			return nil, nil, false
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) != 1 {
				continue
			}
			c, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr)
			if !ok || !returnsHandle(info, c) {
				continue
			}
			if o := info.Defs[vs.Names[0]]; o != nil && vs.Names[0].Name != "_" {
				return c, o, false
			}
			return c, nil, true
		}
	}
	return nil, nil, false
}

// checkIssue runs the path queries for one bound handle.
func checkIssue(pass *analysis.Pass, g *cfg.Graph, is issueSite) {
	info := pass.TypesInfo
	obj := is.obj

	waits := func(n ast.Node) bool { return nodeWaits(info, n, obj) }
	escapes := func(n ast.Node) bool { return nodeEscapes(info, n, obj, is.call) }
	settled := func(n ast.Node) bool { return waits(n) || escapes(n) }

	// Check 2: every path from the issue must settle the handle.
	anyWait, anyEscape := false, false
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if waits(n) {
				anyWait = true
			}
			if escapes(n) {
				anyEscape = true
			}
		}
	}
	if !anyWait && !anyEscape {
		pass.Reportf(is.call.Pos(), "nonblocking handle %q never reaches Wait or WaitAll in this function", obj.Name())
		return
	}
	isReturn := func(n ast.Node) bool { _, ok := n.(*ast.ReturnStmt); return ok }
	leak := g.Search(is.pos, isReturn, settled)
	switch {
	case leak.Found != nil:
		pass.Reportf(is.call.Pos(), "nonblocking handle %q does not reach Wait or WaitAll on the path returning at line %d",
			obj.Name(), pass.Fset.Position(leak.Found.Pos()).Line)
		return
	case leak.ReachedExit:
		pass.Reportf(is.call.Pos(), "nonblocking handle %q does not reach Wait or WaitAll on a path falling off the end of the function", obj.Name())
		return
	}

	// Check 3: no barrier reachable before the first wait/escape.
	isBarrier := func(n ast.Node) bool {
		found := false
		cfg.ScanOwn(n, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok && analysis.IsMethodCall(info, c, "ga", "Proc", "Barrier") {
				found = true
			}
			return true
		})
		return found
	}
	if res := g.Search(is.pos, isBarrier, settled); res.Found != nil {
		pass.Reportf(is.call.Pos(), "nonblocking handle %q crosses a barrier on line %d before its Wait; deferred work must not pass a synchronisation point",
			obj.Name(), pass.Fset.Position(res.Found.Pos()).Line)
		return
	}

	// Check 4: the get-buffer must not be read before the wait.
	if is.buf == nil {
		return
	}
	usesBuf := func(n ast.Node) bool {
		// A mention inside another handle-producing call is a re-issue
		// into the buffer, not a read of in-flight data.
		var reissues []*ast.CallExpr
		cfg.ScanOwn(n, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok && returnsHandle(info, c) {
				reissues = append(reissues, c)
			}
			return true
		})
		found := false
		cfg.ScanOwn(n, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok || info.Uses[id] != is.buf {
				return true
			}
			for _, c := range reissues {
				if id.Pos() >= c.Pos() && id.End() <= c.End() {
					return true
				}
			}
			found = true
			return true
		})
		return found
	}
	if res := g.Search(is.pos, usesBuf, settled); res.Found != nil {
		pass.Reportf(is.call.Pos(), "buffer %q filled by %s is read on line %d before the handle's Wait; its contents are undefined until the transfer completes",
			is.buf.Name(), callName(info, is.call), pass.Fset.Position(res.Found.Pos()).Line)
	}
}

// nodeWaits reports whether executing n completes the handle: a
// Handle.Wait on obj, a Proc.WaitAll mentioning obj (including a
// variadic spread), or a defer of either (which covers every later
// exit).
func nodeWaits(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	cfg.ScanOwn(n, func(m ast.Node) bool {
		c, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if analysis.IsMethodCall(info, c, "ga", "Handle", "Wait") {
			if sel, isSel := ast.Unparen(c.Fun).(*ast.SelectorExpr); isSel {
				if id, isIdent := ast.Unparen(sel.X).(*ast.Ident); isIdent && info.Uses[id] == obj {
					found = true
				}
			}
			return true
		}
		if analysis.IsMethodCall(info, c, "ga", "Proc", "WaitAll") {
			for _, arg := range c.Args {
				if usesObject(info, arg, obj) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// nodeEscapes reports whether executing n moves the handle's ownership
// out of this function's straight-line view: returning it, assigning it
// to another variable/field/element, placing it in a composite literal,
// sending it, passing it to a call other than Wait/WaitAll, or
// capturing it in a function literal.
func nodeEscapes(info *types.Info, n ast.Node, obj types.Object, issue *ast.CallExpr) bool {
	found := false
	cfg.ScanOwn(n, func(m ast.Node) bool {
		switch s := m.(type) {
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if usesObject(info, res, obj) {
					found = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				id, ok := ast.Unparen(rhs).(*ast.Ident)
				if !ok || info.Uses[id] != obj {
					continue
				}
				// A blank assignment discards rather than transfers.
				if len(s.Lhs) == len(s.Rhs) {
					if lid, isIdent := ast.Unparen(s.Lhs[i]).(*ast.Ident); isIdent && lid.Name == "_" {
						continue
					}
				}
				found = true
			}
		case *ast.CompositeLit:
			for _, elt := range s.Elts {
				if usesObject(info, elt, obj) {
					found = true
				}
			}
		case *ast.SendStmt:
			if usesObject(info, s.Value, obj) {
				found = true
			}
		case *ast.CallExpr:
			if s == issue ||
				analysis.IsMethodCall(info, s, "ga", "Handle", "Wait") ||
				analysis.IsMethodCall(info, s, "ga", "Proc", "WaitAll") {
				return true
			}
			for _, arg := range s.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
			}
		}
		return true
	})
	if found {
		return true
	}
	// ScanOwn skips nested literals; a closure capturing the handle is
	// an escape (the closure owns the wait).
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok && m != n {
			if usesObject(info, lit.Body, obj) {
				found = true
			}
			return false
		}
		return true
	})
	return found
}

// returnsHandle reports whether call produces a *ga.Handle as its first
// result — the nonblocking verbs themselves or any wrapper around them.
func returnsHandle(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	t := tv.Type
	if tuple, isTuple := t.(*types.Tuple); isTuple {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(0).Type()
	}
	ptr, isPtr := t.(*types.Pointer)
	return isPtr && analysis.NamedTypeIs(ptr.Elem(), "ga", "Handle")
}

// usesObject reports whether expr mentions obj.
func usesObject(info *types.Info, expr ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}

// lhsObject returns the variable a define/assign binds, or nil for
// blank or non-ident targets.
func lhsObject(info *types.Info, lhs ast.Expr) types.Object {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// callName renders the called expression for diagnostics.
func callName(info *types.Info, call *ast.CallExpr) string {
	if fn := analysis.CalleeFunc(info, call); fn != nil {
		return fn.Name()
	}
	return "call"
}
