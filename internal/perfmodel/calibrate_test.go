package perfmodel

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCalibrationRoundTrip pins the cache protocol end to end through the
// QEMU_CALIBRATION_FILE override: Save writes where Path points, Load and
// Active read it back exactly, and implausible caches are rejected in
// favour of the defaults.
func TestCalibrationRoundTrip(t *testing.T) {
	p := filepath.Join(t.TempDir(), "calibration.json")
	t.Setenv(envCalibrationFile, p)

	if _, ok := Load(); ok {
		t.Fatal("Load reported a cache before anything was saved")
	}
	if got := Active(); got != Default() {
		t.Fatalf("Active without a cache = %+v, want Default()", got)
	}

	m := Default()
	m.Source = "calibrated"
	m.SweepNs = 1.25
	if err := m.Save(); err != nil {
		t.Fatal(err)
	}
	back, ok := Load()
	if !ok {
		t.Fatal("Load missed the cache Save just wrote")
	}
	if back != m {
		t.Fatalf("round trip changed the constants: %+v != %+v", back, m)
	}
	if got := Active(); got != m {
		t.Fatalf("Active ignores the cache: %+v", got)
	}

	// A corrupt or implausible cache must fall back to the defaults, not
	// poison the selector.
	bad := m
	bad.FFTNs = -1
	if err := bad.Save(); err != nil {
		t.Fatal(err)
	}
	if _, ok := Load(); ok {
		t.Fatal("Load accepted non-positive constants")
	}
	if got := Active(); got != Default() {
		t.Fatalf("Active with an implausible cache = %+v, want Default()", got)
	}
	if err := os.WriteFile(p, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := Load(); ok {
		t.Fatal("Load accepted malformed JSON")
	}
}

// TestCalibrateProducesPlausibleConstants runs the real micro-calibration
// once and checks every constant lands in the plausible window — the same
// gate Load applies before trusting a cache.
func TestCalibrateProducesPlausibleConstants(t *testing.T) {
	if testing.Short() {
		t.Skip("timing: skipped with -short")
	}
	m := Calibrate()
	if m.Source != "calibrated" {
		t.Errorf("Source = %q, want calibrated", m.Source)
	}
	if !m.plausible() {
		t.Errorf("calibration produced implausible constants: %+v", m)
	}
}
