package lint

import (
	"go/ast"
)

// ScanRead flags direct storage.Column data access from the query engine.
//
// Under the pushdown scan contract every block the executor touches must be
// charged to the query's IOStats exactly once — that accounting is what the
// scan_pushdown bench floor, the 1-vs-N-worker parity tests, and EXPLAIN's
// predicted-vs-actual block annotations all measure. storage.Column.Value,
// Numeric, and NumericAll read block data without charging anything, so a
// call from internal/engine silently under-reports I/O and can diverge
// between worker counts. Engine code must read through the blessed scan
// entry points that share per-column charge state: storage.Reader
// (Value/Numeric/LoadAll/LoadRange/Filter) or storage.BlockScan. The brute-force
// reference executor deliberately bypasses accounting (it is the
// correctness oracle, not a measured path) and carries
// //bytecard:rawscan-ok annotations.
var ScanRead = &Analyzer{
	Name: "scanread",
	Doc: "flag direct storage.Column data access from the query engine\n\n" +
		"Engine reads must flow through storage.Reader or storage.BlockScan so\n" +
		"every block is charged to IOStats exactly once. Read through a Reader,\n" +
		"or annotate deliberate unaccounted reads with\n" +
		"//bytecard:rawscan-ok <reason>.",
	Run: runScanRead,
}

// scanReadMethods is the unaccounted data-reading surface of storage.Column.
// Metadata accessors (Name, Kind, Len, NumBlocks, DictSize) read no block
// data and stay free.
var scanReadMethods = map[string]bool{
	"Value":      true,
	"Numeric":    true,
	"NumericAll": true,
}

func runScanRead(pass *Pass) error {
	// Only the engine package carries the charge-once invariant; storage
	// itself, model training, and workload generation read columns freely.
	if pass.Pkg.Name() != "engine" {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || !scanReadMethods[fn.Name()] {
				return true
			}
			if recvTypeName(fn) != "Column" || !pathHasSuffix(pkgPathOf(fn), "internal/storage") {
				return true
			}
			if pass.InTestFile(call.Pos()) {
				return true
			}
			if pass.MissingReason("rawscan", call.Pos()) {
				pass.Reportf(call.Pos(), "scanread: //bytecard:rawscan-ok annotation needs a reason explaining why this read skips I/O accounting")
				return true
			}
			if pass.Suppressed("rawscan", call.Pos()) {
				return true
			}
			pass.Reportf(call.Pos(), "scanread: direct storage.Column.%s bypasses the charge-once scan contract (no IOStats charge, no zone-map consultation); read through storage.Reader or storage.BlockScan, or annotate with //bytecard:rawscan-ok <reason>", fn.Name())
			return true
		})
	}
	return nil
}
