package lint

// All returns the full project analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{AtomicWrite, CtxFlow, GoroutineSrc, GuardCall, LockSafe, MapIter, RandSource, ScanRead}
}
