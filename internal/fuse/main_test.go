package fuse

import (
	"fmt"
	"os"
	"testing"
	_ "unsafe" // go:linkname
)

// denseAsm is statevec's kernel-body selection, reached by name because
// nothing exported selects a body: on a host that runs the assembly body
// of the dense block sweep, the suite runs a second time on the pure-Go
// body every other host uses.
//
//go:linkname denseAsm repro/internal/statevec.useDenseAsm
var denseAsm bool

func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && denseAsm {
		denseAsm = false
		fmt.Println("second pass: dense block sweep on the pure-Go body")
		code = m.Run()
	}
	os.Exit(code)
}
