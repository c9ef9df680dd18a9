package modellib

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
)

// modelPath is the on-disk location of a stored instance model.
func modelPath(lib *Library, module string, width int, enhanced bool) string {
	return filepath.Join(lib.Root(), "models", modelKey(module, width, enhanced))
}

// TestPartialModelWriteDetected is the regression test for the non-atomic
// writes this package used to do: a partially-written (truncated) model
// file must be detected on load and quarantined, never parsed as valid.
func TestPartialModelWriteDetected(t *testing.T) {
	lib, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.PutModel("ripple-adder", 4, testModel("ripple-adder", 8, true)); err != nil {
		t.Fatal(err)
	}
	path := modelPath(lib, "ripple-adder", 4, true)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window of a plain os.WriteFile: 60% of the bytes.
	if err := os.WriteFile(path, raw[:len(raw)*6/10], 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = lib.GetModel("ripple-adder", 4, true)
	if !atomicio.IsCorrupt(err) {
		t.Fatalf("truncated model loaded: %v", err)
	}
	if _, statErr := os.Stat(path + ".corrupt"); statErr != nil {
		t.Errorf("truncated model not quarantined: %v", statErr)
	}
	// After quarantine the lookup degrades to a clean miss.
	if _, err := lib.GetModel("ripple-adder", 4, true); err == nil || atomicio.IsCorrupt(err) {
		t.Errorf("quarantined model still poisons lookups: %v", err)
	}
}

// TestLegacyModelWithoutChecksumLoads keeps pre-atomicio libraries
// readable: plain JSON without a trailer is re-validated and accepted.
func TestLegacyModelWithoutChecksumLoads(t *testing.T) {
	lib, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data, err := testModel("ripple-adder", 8, false).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(modelPath(lib, "ripple-adder", 4, false), data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := lib.GetModel("ripple-adder", 4, false)
	if err != nil {
		t.Fatalf("legacy model rejected: %v", err)
	}
	if m.InputBits != 8 {
		t.Errorf("legacy model mangled: %d input bits", m.InputBits)
	}
}

// TestLegacyGarbageQuarantined: a legacy file that fails validation is
// corrupt, not a zero-valued model.
func TestLegacyGarbageQuarantined(t *testing.T) {
	lib, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := modelPath(lib, "ripple-adder", 4, false)
	if err := os.WriteFile(path, []byte(`{"module":"ripple-adder","input_bits":-3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := lib.GetModel("ripple-adder", 4, false); !atomicio.IsCorrupt(err) {
		t.Fatalf("invalid legacy model loaded: %v", err)
	}
	if _, statErr := os.Stat(path + ".corrupt"); statErr != nil {
		t.Errorf("invalid legacy model not quarantined: %v", statErr)
	}
}

// TestPartialParamWriteDetected covers the same crash window for stored
// width regressions.
func TestPartialParamWriteDetected(t *testing.T) {
	lib, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pm := fitTestParam(t)
	if err := lib.PutParam(pm); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(lib.Root(), "params", pm.Module+"-"+pm.Basis.Name+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := lib.GetParam(pm.Module); !atomicio.IsCorrupt(err) {
		t.Fatalf("truncated regression loaded: %v", err)
	}
}

// TestOversizedEnhancedRowQuarantined: a sealed model file whose
// enhanced row holds one bucket more than the paper's class count allows
// fails LoadModel's validation, and GetModel quarantines it as corrupt.
func TestOversizedEnhancedRowQuarantined(t *testing.T) {
	lib, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := testModel("ripple-adder", 6, true)
	bad.Enhanced[2] = append(bad.Enhanced[2], core.Coef{})
	path := modelPath(lib, "ripple-adder", 3, true)
	if err := atomicio.WriteJSON(path, bad); err != nil {
		t.Fatal(err)
	}
	_, err = lib.GetModel("ripple-adder", 3, true)
	if !atomicio.IsCorrupt(err) || !strings.Contains(err.Error(), "enhanced row 3 has 5 buckets, want 4") {
		t.Fatalf("oversized enhanced row loaded: %v", err)
	}
	if _, statErr := os.Stat(path + ".corrupt"); statErr != nil {
		t.Errorf("oversized enhanced row not quarantined: %v", statErr)
	}
}

// TestNegativeEnhancedCoefficientQuarantined: a sealed model file whose
// enhanced table holds a negative charge fails LoadModel's validation, so
// GetModel quarantines it instead of serving the charge.
func TestNegativeEnhancedCoefficientQuarantined(t *testing.T) {
	lib, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad := testModel("ripple-adder", 6, true)
	bad.Enhanced[0][0] = core.Coef{P: -5, Count: 3}
	path := modelPath(lib, "ripple-adder", 3, true)
	if err := atomicio.WriteJSON(path, bad); err != nil {
		t.Fatal(err)
	}
	_, err = lib.GetModel("ripple-adder", 3, true)
	if !atomicio.IsCorrupt(err) || !strings.Contains(err.Error(), "enhanced class (1, bucket 0) invalid") {
		t.Fatalf("negative enhanced coefficient loaded: %v", err)
	}
	if _, statErr := os.Stat(path + ".corrupt"); statErr != nil {
		t.Errorf("negative enhanced coefficient not quarantined: %v", statErr)
	}
}

// TestForgedWidthFactorQuarantined: a regression file without a checksum
// trailer whose width factor exceeds its class count would make every
// synthesis allocate factor × width coefficients; GetParam quarantines it.
func TestForgedWidthFactorQuarantined(t *testing.T) {
	lib, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(lib.Root(), "params", "ripple-adder-linear.json")
	forged := `{"format":"hdpower-parammodel-v1","module":"ripple-adder","basis":"linear",` +
		`"width_factor":1125899906842624,"r":[[1,2]],"residual":[0]}`
	if err := os.WriteFile(path, []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = lib.GetParam("ripple-adder")
	if !atomicio.IsCorrupt(err) || !strings.Contains(err.Error(), "exceeds the 1 fitted classes") {
		t.Fatalf("forged width factor loaded: %v", err)
	}
	if _, statErr := os.Stat(path + ".corrupt"); statErr != nil {
		t.Errorf("forged width factor not quarantined: %v", statErr)
	}
}

// TestModelRefusesOverflowingRegression: a regression file whose vectors
// overflow at the requested width loads (every entry is finite), but its
// synthesized model would price at +Inf; Model refuses it with an error
// naming the regression, and a valid regression stored over it
// synthesizes again.
func TestModelRefusesOverflowingRegression(t *testing.T) {
	lib, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(lib.Root(), "params", "ripple-adder-linear.json")
	params := `{"format":"hdpower-parammodel-v1","module":"ripple-adder","basis":"linear",` +
		`"width_factor":2,"r":[[1e308,1e308],[1,2]],"residual":[0,0]}`
	if err := os.WriteFile(path, []byte(params), 0o644); err != nil {
		t.Fatal(err)
	}
	model, _, err := lib.Model("ripple-adder", 16, false)
	if err == nil || !strings.Contains(err.Error(), "linear regression for ripple-adder") {
		t.Fatalf("Model = %v, %v; want an error naming the regression", model, err)
	}

	if err := lib.PutParam(fitTestParam(t)); err != nil {
		t.Fatal(err)
	}
	model, synthesized, err := lib.Model("ripple-adder", 16, false)
	if err != nil || !synthesized {
		t.Fatalf("valid regression: synthesized %v, err %v", synthesized, err)
	}
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
}
