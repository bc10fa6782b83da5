package backend_test

import (
	"fmt"
	"os"
	"testing"
	_ "unsafe" // go:linkname
)

// denseBody is statevec's kernel-body selection, reached by name because
// nothing exported selects a body. Its values and their names are
// statevec's denseBodyKind (multiqubit.go) and live only there: all this
// file relies on is that a host runs every body below its own, down to 0,
// the pure-Go one every other host uses — so the suite runs once per body
// and prints the number. hostPass marks the first pass for the timing log,
// which measures nothing new in the others.
//
//go:linkname denseBody repro/internal/statevec.denseBody
var denseBody uint8

var hostPass bool

func TestMain(m *testing.M) {
	host, code := denseBody, 0
	for pass := uint8(0); pass <= host && code == 0; pass++ {
		denseBody, hostPass = host-pass, pass == 0
		fmt.Printf("pass %d of %d: dense block sweep on statevec body %d\n", pass+1, host+1, denseBody)
		code = m.Run()
	}
	os.Exit(code)
}
