package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// calleeFunc resolves the function or method a call expression invokes,
// returning nil for calls through function-typed values, built-ins, and
// type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.IndexExpr: // generic instantiation
		return calleeFunc(info, &ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return calleeFunc(info, &ast.CallExpr{Fun: fun.X})
	}
	return nil
}

// recvTypeName returns the bare type name of fn's receiver ("Context" for
// func (c *Context) ...), or "" for package-level functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	if iface, ok := t.Underlying().(*types.Interface); ok && iface != nil {
		// Interface method via embedded lookup: fall back to the object name
		// of the declared receiver when available.
		return ""
	}
	return ""
}

// pkgPathOf returns fn's defining package path ("" for builtins/universe).
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// pathHasSuffix reports whether a package path equals suffix or ends with
// "/"+suffix — how the analyzers match bytecard packages without hardcoding
// the module name (testdata packages use short synthetic paths).
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isIntegerExpr reports whether e has integer type (commutative-accumulation
// whitelist: float accumulation is order-sensitive, integer is not).
func isIntegerExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// exprString renders a side-effect-free expression (identifiers, selector
// chains, index expressions) to a comparable string; returns "" for
// expressions it cannot canonically render.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		x := exprString(e.X)
		if x == "" {
			return ""
		}
		return x + "." + e.Sel.Name
	case *ast.IndexExpr:
		x, i := exprString(e.X), exprString(e.Index)
		if x == "" || i == "" {
			return ""
		}
		return x + "[" + i + "]"
	case *ast.BasicLit:
		return e.Value
	}
	return ""
}

// containsCall reports whether the expression tree contains any call that is
// not a type conversion or a pure builtin (len, cap) — used to keep
// "order-insensitive loop body" judgments honest about hidden side effects.
func containsCall(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
				return true // conversion, keep walking operand
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin && (id.Name == "len" || id.Name == "cap") {
					return true
				}
			}
			found = true
			return false
		}
		return !found
	})
	return found
}
