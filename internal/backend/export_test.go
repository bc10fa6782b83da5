package backend

// RunUnitsFilled is RunUnits on a cluster-engine backend, reporting
// whether the call started with a product prefix's fill.
func RunUnitsFilled(b Backend, x *Executable, lo, hi int) (bool, error) {
	st, err := b.(*clusterBackend).runUnits(x, lo, hi)
	return st.filled, err
}

// RunUnitsCounted is RunUnits on a cluster-engine backend, reporting the
// op pairs it composed and the reflections it ran on a carried sum.
func RunUnitsCounted(b Backend, x *Executable, lo, hi int) (composed, carried int, err error) {
	st, err := b.(*clusterBackend).runUnits(x, lo, hi)
	return st.composed, st.carried, err
}
