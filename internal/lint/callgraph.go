package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CallGraph is a lightweight static call graph over one package: nodes are
// the package's declared functions and methods, edges are static call sites
// (direct calls, method calls on concrete receivers, and method calls
// through interfaces resolved against the package's own method sets). It is
// built straight from the type-checked AST — no SSA — which is enough for
// the forward-reachability questions the interprocedural analyzers ask:
// can this lock-holding region reach storage I/O, a guarded model call, or
// outbound HTTP through any chain of same-package helpers?
//
// Cross-package callees are leaves: the graph records the edge (so a
// classifier can judge the callee by identity — package path, receiver,
// name) but never descends into bodies it has not parsed. That keeps the
// graph buildable from one package's sources at a time, which is all the
// loader presents to an analyzer.
type CallGraph struct {
	pass *Pass
	// decls maps each function/method declared in the package to its body.
	decls map[*types.Func]*ast.FuncDecl
	// edges maps each declared function to its static call sites in source
	// order. Function-literal bodies nested in a declaration contribute to
	// the declaration's edge list: a closure invoked by a helper (par.Do,
	// sort.Slice) runs on the caller's stack often enough that treating its
	// calls as the enclosing function's is the conservative choice.
	edges map[*types.Func][]CallSite
	// implCache memoizes interface-method → same-package implementations.
	implCache map[*types.Func][]*types.Func
}

// CallSite is one static call edge.
type CallSite struct {
	// Callee is the invoked function (possibly from another package).
	Callee *types.Func
	// Pos is the call expression's position.
	Pos token.Pos
}

// NewCallGraph builds the package's call graph.
func NewCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{
		pass:      pass,
		decls:     map[*types.Func]*ast.FuncDecl{},
		edges:     map[*types.Func][]CallSite{},
		implCache: map[*types.Func][]*types.Func{},
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				g.decls[fn] = fd
			}
		}
	}
	for fn, fd := range g.decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			g.edges[fn] = append(g.edges[fn], CallSite{Callee: callee, Pos: call.Pos()})
			for _, impl := range g.implementations(callee) {
				g.edges[fn] = append(g.edges[fn], CallSite{Callee: impl, Pos: call.Pos()})
			}
			return true
		})
	}
	return g
}

// Decl returns the body declaration of a function declared in this package
// (nil for external functions and function literals).
func (g *CallGraph) Decl(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

// Callees returns fn's static call sites in source order.
func (g *CallGraph) Callees(fn *types.Func) []CallSite { return g.edges[fn] }

// implementations resolves an interface method to the concrete methods of
// this package's named types that satisfy the interface — the method-set
// half of edge construction. Methods of external types are out of reach
// (their bodies are not loaded), so only same-package implementations
// produce edges; external concrete callees are still classified by
// identity at the call site.
func (g *CallGraph) implementations(fn *types.Func) []*types.Func {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	if impls, ok := g.implCache[fn]; ok {
		return impls
	}
	var impls []*types.Func
	scope := g.pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, g.pass.Pkg, fn.Name())
		if m, ok := obj.(*types.Func); ok && g.decls[m] != nil {
			impls = append(impls, m)
		}
	}
	g.implCache[fn] = impls
	return impls
}

// ReachedCall describes one match found by a Finder: the classification of
// the matched callee and the call chain (function names, caller first) that
// reaches it from the starting callee.
type ReachedCall struct {
	// Desc is the classifier's description of the matched call.
	Desc string
	// Chain lists the same-package functions traversed to reach the match,
	// outermost first; empty when the starting callee matched directly.
	Chain []string
}

// Finder answers forward-reachability queries over a call graph against one
// classifier, memoizing per function so a repo-wide sweep stays linear in
// the number of edges.
type Finder struct {
	g *CallGraph
	// classify judges one callee by identity; ok=true means the call itself
	// is a match (the walk does not descend into matches).
	classify func(*types.Func) (string, bool)
	memo     map[*types.Func]*ReachedCall // nil value = proven clean
	visiting map[*types.Func]bool
}

// NewFinder creates a reachability finder over g for one classifier.
func (g *CallGraph) NewFinder(classify func(*types.Func) (string, bool)) *Finder {
	return &Finder{g: g, classify: classify, memo: map[*types.Func]*ReachedCall{}, visiting: map[*types.Func]bool{}}
}

// Find reports whether calling fn can reach a classified call: either fn
// itself matches, or (when fn is declared in this package) some chain of
// same-package calls from its body reaches one.
func (f *Finder) Find(fn *types.Func) (ReachedCall, bool) {
	if desc, ok := f.classify(fn); ok {
		return ReachedCall{Desc: desc}, true
	}
	if hit := f.findInBody(fn); hit != nil {
		return *hit, true
	}
	return ReachedCall{}, false
}

// findInBody walks fn's same-package body edges looking for a match.
func (f *Finder) findInBody(fn *types.Func) *ReachedCall {
	if f.g.decls[fn] == nil || f.visiting[fn] {
		return nil
	}
	if hit, done := f.memo[fn]; done {
		return hit
	}
	f.visiting[fn] = true
	defer delete(f.visiting, fn)
	var found *ReachedCall
	for _, site := range f.g.edges[fn] {
		if desc, ok := f.classify(site.Callee); ok {
			found = &ReachedCall{Desc: desc, Chain: []string{fn.Name()}}
			break
		}
		if hit := f.findInBody(site.Callee); hit != nil {
			found = &ReachedCall{Desc: hit.Desc, Chain: append([]string{fn.Name()}, hit.Chain...)}
			break
		}
	}
	f.memo[fn] = found
	return found
}
