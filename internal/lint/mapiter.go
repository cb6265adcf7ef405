package lint

import (
	"go/ast"
	"go/token"
)

// MapIter flags `for range` over maps in determinism-critical packages.
//
// ByteCard's estimates must be reproducible: the same workload trained and
// queried twice has to produce byte-identical models and identical plans, or
// regression diffing, the model-staleness monitor, and A/B accounting all
// break. Go randomizes map iteration order on purpose, so any map range in a
// package on the determinism-critical list (bn, factorjoin, modelforge,
// engine, modelstore, workload) is suspect unless either
//
//   - the loop body is provably order-insensitive (pure collection into a
//     slice that is sorted elsewhere, commutative integer accumulation,
//     keyed copies/deletes), or
//   - the site carries a //bytecard:unordered-ok <reason> annotation.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc: "flag map iteration in determinism-critical packages\n\n" +
		"Map range order is randomized by the runtime; in packages that train\n" +
		"models, serialize artifacts, or plan queries it silently breaks\n" +
		"reproducibility. Sort the keys first, or annotate the loop with\n" +
		"//bytecard:unordered-ok <reason> when order provably cannot matter.",
	Run: runMapIter,
}

// mapiterPackages lists package *names* on the determinism-critical list.
// Matching by name (not full path) lets the analyzer cover the testdata
// fixture packages in its own test suite with the same code path.
var mapiterPackages = map[string]bool{
	"bn":         true,
	"factorjoin": true,
	"modelforge": true,
	"engine":     true,
	"modelstore": true,
	"workload":   true,
}

func runMapIter(pass *Pass) error {
	if !mapiterPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if !isMapType(pass.TypesInfo.TypeOf(rs.X)) {
				return true
			}
			if pass.InTestFile(rs.Pos()) {
				return true
			}
			if pass.MissingReason("unordered", rs.Pos()) {
				pass.Reportf(rs.Pos(), "mapiter: //bytecard:unordered-ok annotation needs a reason explaining why iteration order cannot matter")
				return true
			}
			if pass.Suppressed("unordered", rs.Pos()) {
				return true
			}
			if orderInsensitiveLoop(pass, rs) {
				return true
			}
			pass.Reportf(rs.Pos(), "mapiter: map iteration order is nondeterministic in determinism-critical package %q; sort the keys first or annotate with //bytecard:unordered-ok <reason>", pass.Pkg.Name())
			return true
		})
	}
	return nil
}

// orderInsensitiveLoop reports whether every statement in the loop body is in
// the conservative order-insensitive grammar: append-accumulation, integer
// commutative op-assign, keyed map writes/deletes using the loop key,
// continue, and if/else composed of only those. Anything else — float
// accumulation, I/O, channel sends, early returns, calls — disqualifies the
// loop and the site must sort or annotate.
func orderInsensitiveLoop(pass *Pass, rs *ast.RangeStmt) bool {
	keyName := ""
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		keyName = id.Name
	}
	return orderInsensitiveStmts(pass, rs.Body.List, keyName)
}

func orderInsensitiveStmts(pass *Pass, stmts []ast.Stmt, keyName string) bool {
	for _, s := range stmts {
		if !orderInsensitiveStmt(pass, s, keyName) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(pass *Pass, s ast.Stmt, keyName string) bool {
	info := pass.TypesInfo
	switch s := s.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		lhs, rhs := s.Lhs[0], s.Rhs[0]
		switch s.Tok {
		case token.ASSIGN, token.DEFINE:
			// x = append(x, ...): collecting into a slice is order-insensitive
			// here because every such slice must be sorted before use (the
			// collect-then-sort idiom); the appended elements may reference
			// the loop variables freely.
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent && id.Name == "append" && len(call.Args) >= 2 {
					if ls := exprString(lhs); ls != "" && ls == exprString(call.Args[0]) {
						return true
					}
				}
			}
			// dst[k] = ...: keyed write through the loop key visits each key
			// exactly once regardless of order, provided the value expression
			// has no calls (calls may observe intermediate state).
			if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && keyName != "" {
				if exprString(idx.Index) == keyName && !containsCall(info, rhs) {
					return true
				}
			}
			return false
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Integer accumulation commutes; float accumulation does not
			// (rounding depends on summation order).
			return isIntegerExpr(info, lhs) && !containsCall(info, rhs)
		}
		return false
	case *ast.IncDecStmt:
		return isIntegerExpr(info, s.X)
	case *ast.ExprStmt:
		// delete(m, k) keyed by the loop key.
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		if !ok || keyName == "" {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "delete" || len(call.Args) != 2 {
			return false
		}
		return exprString(call.Args[1]) == keyName
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.IfStmt:
		if s.Init != nil || containsCall(info, s.Cond) {
			return false
		}
		if !orderInsensitiveStmts(pass, s.Body.List, keyName) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return orderInsensitiveStmts(pass, e.List, keyName)
		case *ast.IfStmt:
			return orderInsensitiveStmt(pass, e, keyName)
		}
		return false
	case *ast.BlockStmt:
		return orderInsensitiveStmts(pass, s.List, keyName)
	}
	return false
}
