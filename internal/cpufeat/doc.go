// Package cpufeat answers the one question the assembly kernel bodies ask
// of the host — which body may run here — and holds the answer, Active,
// for every kernel that has one: statevec's dense, diagonal and factored
// block sweeps and fft's radix-8 butterflies and heads. AVX2 means AVX2
// and FMA3 instructions may run; AVX512 means AVX-512 Foundation ones may
// too (the ZMM bodies of the block sweeps and of the radix-8 butterflies at
// spans of four or more). It is a 40-line CPUID/XGETBV probe rather than a
// dependency on x/sys/cpu.
package cpufeat
