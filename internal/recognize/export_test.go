package recognize

// The region parser and the op comparison, for the external tests that
// also need the backend codec (an import this package's own tests cannot
// make).
var (
	ParseRegion = parseRegion
	SameOp      = sameOp
)
