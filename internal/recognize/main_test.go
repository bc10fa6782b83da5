package recognize_test

import (
	"fmt"
	"os"
	"testing"
	_ "unsafe" // go:linkname
)

// butterflyBody is fft's butterfly-body selection, reached by name because
// nothing exported selects a body. Its values and their names are fft's
// bodyKind (butterfly.go) and live only there: all this file relies on is
// that a host runs every body below its own, down to 0, the pure-Go one
// every other host uses — so the suite runs once per body, and the
// recognised Fourier regions are checked against their gates through each.
//
//go:linkname butterflyBody repro/internal/fft.butterflyBody
var butterflyBody uint8

func TestMain(m *testing.M) {
	host, code := butterflyBody, 0
	for pass := uint8(0); pass <= host && code == 0; pass++ {
		butterflyBody = host - pass
		fmt.Printf("pass %d of %d: radix-8 butterflies on fft body %d\n", pass+1, host+1, butterflyBody)
		code = m.Run()
	}
	os.Exit(code)
}
