package cpufeat

// Body names a body of the kernels that have assembly: statevec's dense,
// diagonal and factored block sweeps and fft's butterflies and heads. The
// order is the order of what a host needs: every body below a host's own
// also runs there (the ZMM bodies leave their tails to the YMM ones), which
// is what lets the test suites count down from the host's body to Go.
type Body uint8

const (
	Go     Body = iota // the pure-Go kernels: any host, and the tests' oracle
	AVX2               // the YMM assembly: AVX2 and FMA3
	AVX512             // the ZMM assembly: AVX-512F as well
)

func (b Body) String() string {
	return [...]string{"go", "avx2", "avx512"}[b]
}

// active is the body every kernel runs. It is decided once, at package
// init, from CPUID/XGETBV alone; nothing exported moves it. Test suites
// reach it by name (go:linkname) to run the bodies below the host's.
var active = hostBody()

// hostBody is the one place CPUID becomes a body: the widest one the CPU
// and the OS support.
func hostBody() Body {
	switch {
	case HasAVX512():
		return AVX512
	case HasAVX2FMA():
		return AVX2
	}
	return Go
}

// Active returns the body the kernels run.
func Active() Body { return active }
