//go:build race

package experiments

import (
	_ "unsafe" // go:linkname

	"repro/internal/cpufeat"
)

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = true

// The race detector instruments Go code and not assembly, so a wall-clock
// ratio between a simulation on the assembly kernel bodies and an emulation
// in Go would measure the detector. The race build therefore runs every
// kernel, statevec's block sweeps and fft's butterflies, on the Go body,
// through cpufeat's one switch, reached by name because nothing exported
// moves it.
//
//go:linkname activeBody repro/internal/cpufeat.active
var activeBody cpufeat.Body

func init() {
	activeBody = cpufeat.Go
}
