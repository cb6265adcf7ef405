package lint

import (
	"go/ast"
	"go/types"
)

// GuardCall flags direct calls to model inference entry points from outside
// the guarded estimation ladder.
//
// Every learned-model inference in ByteCard is supposed to flow through
// core.Estimator's guarded() path, which layers circuit-breaker admission,
// panic recovery, a latency budget, and output sanitization around the raw
// model call. A direct call to bn.Context.Prob or factorjoin.Model.Estimate
// from, say, the engine bypasses all four protections: one NaN or panic in a
// model reaches query execution. The analyzer knows the inference entry
// points of each model package and the packages allowed to touch them — the
// model package itself and core (the ladder). Test files are exempt.
// Intentional raw calls (demos, calibration) carry
// //bytecard:directcall-ok <reason>.
var GuardCall = &Analyzer{
	Name: "guardcall",
	Doc: "flag unguarded calls to model inference entry points\n\n" +
		"Inference must go through core.Estimator's guarded() ladder (breaker\n" +
		"admission, panic recovery, latency budget, sanitization). Call the\n" +
		"estimator API instead, or annotate deliberate raw calls with\n" +
		"//bytecard:directcall-ok <reason>.",
	Run: runGuardCall,
}

// guardedEntryPoint identifies one inference method: defining package path
// suffix, receiver type name, method name.
type guardedEntryPoint struct {
	pkgSuffix string
	recv      string
	name      string
}

// guardedEntryPoints is the inference surface of the model packages. Training,
// encoding, and validation functions are deliberately absent — only calls
// that produce estimates at query time need the ladder.
var guardedEntryPoints = []guardedEntryPoint{
	{"internal/bn", "Context", "Prob"},
	{"internal/bn", "Context", "ProbNoScratch"},
	{"internal/bn", "Context", "Marginals"},
	{"internal/bn", "Context", "SelectivityConj"},
	{"internal/bn", "Context", "SelectivityNode"},
	{"internal/bn", "Context", "JointWithColumns"},
	{"internal/bn", "TreeWalker", "Prob"},
	{"internal/factorjoin", "Model", "Estimate"},
	{"internal/rbx", "Model", "EstimateNDV"},
	{"internal/rbx", "Model", "EstimateNDVForColumn"},
}

// guardcallAllowedCallers lists package names permitted to call entry points
// directly: core hosts the guarded ladder itself.
var guardcallAllowedCallers = map[string]bool{
	"core": true,
}

func runGuardCall(pass *Pass) error {
	if guardcallAllowedCallers[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			ep, ok := matchEntryPoint(fn)
			if !ok {
				return true
			}
			// The model package may orchestrate its own internals.
			if fn.Pkg() == pass.Pkg || pathHasSuffix(pass.Pkg.Path(), ep.pkgSuffix) {
				return true
			}
			if pass.InTestFile(call.Pos()) {
				return true
			}
			if pass.MissingReason("directcall", call.Pos()) {
				pass.Reportf(call.Pos(), "guardcall: //bytecard:directcall-ok annotation needs a reason explaining why the guarded ladder is bypassed")
				return true
			}
			if pass.Suppressed("directcall", call.Pos()) {
				return true
			}
			pass.Reportf(call.Pos(), "guardcall: direct call to %s.%s.%s bypasses core.Estimator's guarded ladder (breakers, panic recovery, latency budget, sanitization); call the estimator API or annotate with //bytecard:directcall-ok <reason>", fn.Pkg().Name(), ep.recv, ep.name)
			return true
		})
	}
	return nil
}

// matchEntryPoint reports whether fn is a registered inference entry point.
func matchEntryPoint(fn *types.Func) (guardedEntryPoint, bool) {
	path := pkgPathOf(fn)
	if path == "" {
		return guardedEntryPoint{}, false
	}
	recv := recvTypeName(fn)
	for _, ep := range guardedEntryPoints {
		if fn.Name() == ep.name && recv == ep.recv && pathHasSuffix(path, ep.pkgSuffix) {
			return ep, true
		}
	}
	return guardedEntryPoint{}, false
}
