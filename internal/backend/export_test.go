package backend

// RunUnitsFilled is RunUnits on a cluster-engine backend, reporting
// whether the call started with a product prefix's fill.
func RunUnitsFilled(b Backend, x *Executable, lo, hi int) (bool, error) {
	return b.(*clusterBackend).runUnits(x, lo, hi)
}
