package recognize_test

import (
	"fmt"
	"os"
	"testing"
	_ "unsafe" // go:linkname
)

// butterflyAsm is fft's butterfly-body selection, reached by name because
// nothing exported selects a body: on a host that runs the assembly
// butterflies, the suite runs a second time on the pure-Go body every
// other host uses, so the recognised Fourier regions are checked against
// their gates through both.
//
//go:linkname butterflyAsm repro/internal/fft.useButterflyAsm
var butterflyAsm bool

func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && butterflyAsm {
		butterflyAsm = false
		fmt.Println("second pass: radix-8 butterflies on the pure-Go body")
		code = m.Run()
	}
	os.Exit(code)
}
