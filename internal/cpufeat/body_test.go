package cpufeat

import "testing"

// TestHostBodyFollowsTheProbes pins the one host decision: the ZMM body
// exactly where AVX-512 may run, an assembly body exactly where AVX2 and
// FMA3 may, and that decision active before anything moves it. AVX-512
// implies AVX2/FMA3 here, since the ZMM bodies leave their tails to the
// YMM ones.
func TestHostBodyFollowsTheProbes(t *testing.T) {
	if HasAVX512() && !HasAVX2FMA() {
		t.Fatal("HasAVX512 without HasAVX2FMA")
	}
	host := hostBody()
	if (host == AVX512) != HasAVX512() || (host >= AVX2) != HasAVX2FMA() {
		t.Fatalf("host body %s with HasAVX512 %v, HasAVX2FMA %v", host, HasAVX512(), HasAVX2FMA())
	}
	if Active() != host {
		t.Fatalf("active body %s, host body %s", Active(), host)
	}
	t.Logf("this host runs the %s body", host)
}

// TestBodyNames pins the names the per-body test passes print ("pass 1 of
// 3: ... on the avx512 body") and CI's body step greps.
func TestBodyNames(t *testing.T) {
	for b, want := range map[Body]string{Go: "go", AVX2: "avx2", AVX512: "avx512"} {
		if got := b.String(); got != want {
			t.Errorf("Body(%d).String() = %q, want %q", b, got, want)
		}
	}
}
