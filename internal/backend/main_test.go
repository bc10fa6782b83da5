package backend_test

import (
	"fmt"
	"os"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/cpufeat"
)

// activeBody is the kernel body statevec's block sweeps and fft's
// butterflies run, cpufeat's one switch, reached by name because nothing
// exported moves it. A host runs every body below its own, down to Go, the
// one every other host uses, so the suite runs once per body and prints
// its name. hostPass marks the first pass for the timing log, which
// measures nothing new in the others.
//
//go:linkname activeBody repro/internal/cpufeat.active
var activeBody cpufeat.Body

var hostPass bool

func TestMain(m *testing.M) {
	host, code := activeBody, 0
	for pass := cpufeat.Body(0); pass <= host && code == 0; pass++ {
		activeBody, hostPass = host-pass, pass == 0
		fmt.Printf("pass %d of %d: kernels on the %s body\n", pass+1, host+1, activeBody)
		code = m.Run()
	}
	os.Exit(code)
}
