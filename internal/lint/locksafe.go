package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockSafe enforces ByteCard's lock discipline along two invariants.
//
// Release on all paths: every mu.Lock()/mu.RLock() must be provably
// released — either a matching defer, or an explicit unlock on every path
// that leaves the function (returns, fall-off-the-end, and bare panics).
// A leaked registry or cache lock wedges every concurrent query thread
// behind it, and the panic-recovering guard layer means a panic does NOT
// reliably kill the process, so "the crash will clean it up" is not an out.
//
// No I/O while locked (engine, core, modelstore only): while one of the
// serving tier's locks is held, no path may reach a storage block read, a
// guarded model call, or outbound HTTP — found interprocedurally over the
// package call graph, so a lock-holding method that calls a helper that
// calls storage.Reader.Value is caught two hops away. These are the locks
// on the planner's critical path; an I/O stall under one of them becomes a
// stall of every estimate in flight. modelstore's own file writes are
// governed by the atomicwrite protocol instead: "storage I/O" here means
// the internal/storage charging surface, not os file calls.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc: "enforce lock release on all paths and forbid I/O under serving-tier locks\n\n" +
		"Every Lock/RLock needs a defer or a provable unlock before each return\n" +
		"and panic. In engine/core/modelstore, code holding a lock must not\n" +
		"reach storage block reads, guarded model calls, or outbound HTTP —\n" +
		"checked through the package call graph. Annotate deliberate holds with\n" +
		"//bytecard:lock-ok <reason>.",
	Run: runLockSafe,
}

// lockCriticalPkgs names the packages whose locks sit on the estimation
// critical path; only they get the I/O-under-lock check.
var lockCriticalPkgs = map[string]bool{
	"engine":     true,
	"core":       true,
	"modelstore": true,
}

func runLockSafe(pass *Pass) error {
	var graph *CallGraph
	var ioFinder *Finder
	if lockCriticalPkgs[pass.Pkg.Name()] {
		graph = NewCallGraph(pass)
		ioFinder = graph.NewFinder(classifyLockedIO)
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			checkLockDiscipline(pass, fd, ioFinder)
		}
	}
	return nil
}

// lockCall classifies one call as a lock-tracking event. mode pairs
// Lock/Unlock and RLock/RUnlock so a mismatched release never clears the
// obligation; key is the canonical receiver expression ("s.mu").
type lockCall struct {
	key     string
	acquire bool
}

// matchLockCall recognizes sync mutex operations (including methods
// promoted from embedded mutexes, which still resolve to package sync).
func matchLockCall(info *types.Info, call *ast.CallExpr) (lockCall, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || pkgPathOf(fn) != "sync" {
		return lockCall{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockCall{}, false
	}
	recv := exprString(sel.X)
	if recv == "" {
		return lockCall{}, false
	}
	switch fn.Name() {
	case "Lock":
		return lockCall{key: "mu:" + recv, acquire: true}, true
	case "Unlock":
		return lockCall{key: "mu:" + recv}, true
	case "RLock":
		return lockCall{key: "r:" + recv, acquire: true}, true
	case "RUnlock":
		return lockCall{key: "r:" + recv}, true
	}
	return lockCall{}, false
}

// lockKeyName renders a fact key back to source form for diagnostics.
func lockKeyName(key string) string {
	if k, ok := strings.CutPrefix(key, "mu:"); ok {
		return k
	}
	return strings.TrimPrefix(key, "r:")
}

// checkLockDiscipline runs the forward dataflow walk over one function.
func checkLockDiscipline(pass *Pass, fd *ast.FuncDecl, ioFinder *Finder) {
	// deferred collects lock keys released by defer statements anywhere in
	// the body: their obligations are met on every exit path. This is
	// deliberately flow-insensitive — a defer nearly always directly
	// follows its Lock — and only suppresses leak reports, never the
	// I/O-under-lock check.
	deferred := map[string]bool{}

	reportLeak := func(facts flowFacts, escape token.Pos) {
		for key, pos := range facts {
			if deferred[key] {
				continue
			}
			if pass.MissingReason("lock", pos) {
				pass.Reportf(pos, "locksafe: //bytecard:lock-ok annotation needs a reason explaining the unlock protocol")
				continue
			}
			if pass.Suppressed("lock", pos) {
				continue
			}
			pass.Reportf(pos, "locksafe: %s.%s acquired here is not released on the path leaving the function at line %d; defer the unlock or release before every return",
				lockKeyName(key), lockVerb(key), pass.Fset.Position(escape).Line)
		}
	}

	stmt := func(s ast.Stmt, facts flowFacts) {
		switch s := s.(type) {
		case *ast.DeferStmt:
			for _, key := range deferredReleases(pass.TypesInfo, s) {
				deferred[key] = true
			}
			// Deferred work other than the unlock itself runs before the
			// LIFO-stacked unlock fires, i.e. with the lock held.
			checkCallsLocked(pass, s, facts, ioFinder)
		case *ast.GoStmt:
			// A spawned goroutine runs on its own stack; the spawner's
			// locks are not held there (sharing them would be a different
			// bug this analyzer cannot see).
		case *ast.ExprStmt:
			if isPanicCall(s.X) && len(facts) > 0 {
				reportLeak(facts, s.Pos())
				return
			}
			applyLockEvents(pass, s, facts)
			checkCallsLocked(pass, s, facts, ioFinder)
		default:
			applyLockEvents(pass, s, facts)
			checkCallsLocked(pass, s, facts, ioFinder)
		}
	}

	forwardWalk(fd.Body, flowHooks{
		stmt: stmt,
		ret: func(r *ast.ReturnStmt, facts flowFacts) {
			// A call in a return expression still executes under the lock.
			checkCallsLocked(pass, r, facts, ioFinder)
			reportLeak(facts, r.Pos())
		},
		end: func(facts flowFacts) {
			if len(facts) > 0 {
				reportLeak(facts, fd.Body.Rbrace)
			}
		},
	})
}

func lockVerb(key string) string {
	if strings.HasPrefix(key, "r:") {
		return "RLock"
	}
	return "Lock"
}

// applyLockEvents updates the held-lock facts with every mutex operation
// in one simple statement (function-literal bodies excluded: they run on
// their own schedule).
func applyLockEvents(pass *Pass, s ast.Stmt, facts flowFacts) {
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lc, ok := matchLockCall(pass.TypesInfo, call); ok {
			if lc.acquire {
				facts[lc.key] = call.Pos()
			} else {
				delete(facts, lc.key)
			}
		}
		return true
	})
}

// deferredReleases returns the lock keys a defer statement provably
// releases: either the deferred call is the unlock itself, or it defers a
// function literal whose body performs a net release (an unlock of a key
// the literal did not itself acquire).
func deferredReleases(info *types.Info, d *ast.DeferStmt) []string {
	if lc, ok := matchLockCall(info, d.Call); ok && !lc.acquire {
		return []string{lc.key}
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return nil
	}
	acquired := map[string]bool{}
	var released []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lc, ok := matchLockCall(info, call); ok {
			if lc.acquire {
				acquired[lc.key] = true
			} else if !acquired[lc.key] {
				released = append(released, lc.key)
			}
		}
		return true
	})
	return released
}

// checkCallsLocked reports calls that reach I/O while any lock is held —
// the interprocedural half: a call into a same-package helper is followed
// through the call graph.
func checkCallsLocked(pass *Pass, s ast.Stmt, facts flowFacts, ioFinder *Finder) {
	if ioFinder == nil || len(facts) == 0 {
		return
	}
	held := heldSummary(pass, facts)
	ast.Inspect(s, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok && g != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		if _, isLock := matchLockCall(pass.TypesInfo, call); isLock {
			return true
		}
		hit, found := ioFinder.Find(fn)
		if !found {
			return true
		}
		if pass.MissingReason("lock", call.Pos()) {
			pass.Reportf(call.Pos(), "locksafe: //bytecard:lock-ok annotation needs a reason explaining why I/O under this lock is safe")
			return true
		}
		if pass.Suppressed("lock", call.Pos()) {
			return true
		}
		via := ""
		if len(hit.Chain) > 0 {
			via = " via " + strings.Join(hit.Chain, " → ")
		}
		pass.Reportf(call.Pos(), "locksafe: %s reachable%s while holding %s; release the lock before I/O or annotate with //bytecard:lock-ok <reason>",
			hit.Desc, via, held)
		return true
	})
}

// heldSummary renders the held-lock set for a diagnostic, sorted for
// deterministic multi-lock messages.
func heldSummary(pass *Pass, facts flowFacts) string {
	var names []string
	for key, pos := range facts {
		names = append(names, fmt.Sprintf("%s (line %d)", lockKeyName(key), pass.Fset.Position(pos).Line))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// classifyLockedIO judges one callee as I/O forbidden under a serving-tier
// lock. Three classes, mirroring the deployment contract: the storage
// layer's block-charging read surface, the guarded model-inference ladder
// (and its raw entry points), and outbound HTTP (net/http directly or the
// modelforge client that wraps it).
func classifyLockedIO(fn *types.Func) (string, bool) {
	path := pkgPathOf(fn)
	recv := recvTypeName(fn)
	name := fn.Name()
	switch {
	case pathHasSuffix(path, "internal/storage"):
		switch {
		case recv == "Reader" && (name == "Value" || name == "Numeric" || name == "LoadRange" || name == "Filter"),
			recv == "Column" && (name == "Value" || name == "Numeric" || name == "NumericAll"),
			recv == "" && name == "BlockScan":
			return "storage block read (storage." + callName(recv, name) + ")", true
		}
	case pathHasSuffix(path, "internal/core") && recv == "Guard" && name == "Do":
		return "guarded model call (core.Guard.Do)", true
	case path == "net/http":
		switch {
		case recv == "Client" && (name == "Do" || name == "Get" || name == "Head" || name == "Post" || name == "PostForm"),
			recv == "" && (name == "Get" || name == "Head" || name == "Post" || name == "PostForm"):
			return "outbound HTTP (http." + callName(recv, name) + ")", true
		}
	case pathHasSuffix(path, "internal/modelforge") && recv == "Client":
		return "outbound HTTP (modelforge.Client." + name + ")", true
	}
	if ep, ok := matchEntryPoint(fn); ok {
		return "model inference (" + ep.recv + "." + ep.name + ")", true
	}
	return "", false
}

func callName(recv, name string) string {
	if recv == "" {
		return name
	}
	return recv + "." + name
}
