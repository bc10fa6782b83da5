package backend_test

import (
	"fmt"
	"os"
	"testing"
	_ "unsafe" // go:linkname
)

// denseAsm is statevec's kernel-body selection, reached by name because
// nothing exported selects a body: on a host that runs the assembly body
// of the dense block sweep, the suite runs a second time on the pure-Go
// body every other host uses. purePass marks that second pass for the
// wall-clock guard, which measures nothing new there.
//
//go:linkname denseAsm repro/internal/statevec.useDenseAsm
var denseAsm bool

var purePass bool

func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && denseAsm {
		denseAsm, purePass = false, true
		fmt.Println("second pass: dense block sweep on the pure-Go body")
		code = m.Run()
	}
	os.Exit(code)
}
