//go:build !amd64

package cpufeat

// HasAVX2FMA is false off amd64.
func HasAVX2FMA() bool { return false }

// HasAVX512 is false off amd64.
func HasAVX512() bool { return false }
