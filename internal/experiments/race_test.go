//go:build race

package experiments

import _ "unsafe" // go:linkname

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = true

// The race detector instruments Go code and not assembly, so a wall-clock
// ratio between a simulation on the assembly kernel bodies and an emulation
// in Go would measure the detector. The race build therefore runs every
// kernel on its pure-Go body: statevec's block sweeps (body 0; see
// statevec's denseBodyKind) and fft's radix-8 butterflies (body 0; see
// fft's bodyKind), both reached by name because nothing exported selects
// a body.
//
//go:linkname denseBody repro/internal/statevec.denseBody
var denseBody uint8

//go:linkname butterflyBody repro/internal/fft.butterflyBody
var butterflyBody uint8

func init() {
	denseBody, butterflyBody = 0, 0
}
