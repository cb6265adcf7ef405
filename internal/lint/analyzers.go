package lint

// All returns the full project analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{AtomicField, AtomicWrite, CtxFlow, EstClamp, GoroutineSrc, GuardCall, LockSafe, MapIter, PoolHygiene, RandSource, ScanRead}
}
