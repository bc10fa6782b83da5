// Package cpufeat answers the questions the assembly kernel bodies ask of
// the host: may AVX2 and FMA3 instructions run here (statevec's dense
// block sweep, fft's radix-8 butterflies and heads), and may AVX-512
// Foundation ones (the ZMM bodies of the dense block sweep and of fft's
// radix-8 butterflies at spans of four or more). It is a 40-line
// CPUID/XGETBV probe rather than a dependency on x/sys/cpu.
package cpufeat
