// Package cpufeat answers the one question the assembly kernel bodies ask
// of the host (statevec's dense block sweep, fft's radix-8 butterflies):
// may AVX2 and FMA3 instructions run here. It is a 20-line CPUID/XGETBV
// probe rather than a dependency on x/sys/cpu.
package cpufeat
