package modellib

import (
	"math"
	"testing"

	"hdpower/internal/core"
	"hdpower/internal/regress"
)

func testModel(module string, bits int, enhanced bool) *core.Model {
	m := &core.Model{Module: module, InputBits: bits, Basic: make([]core.Coef, bits)}
	for i := 1; i <= bits; i++ {
		m.Basic[i-1] = core.Coef{P: float64(i * 3), Count: 10}
	}
	if enhanced {
		m.Enhanced = make([][]core.Coef, bits)
		for i := 1; i <= bits; i++ {
			m.Enhanced[i-1] = make([]core.Coef, m.NumZBuckets(i))
		}
	}
	return m
}

func TestOpenCreatesLayout(t *testing.T) {
	dir := t.TempDir()
	lib, err := Open(dir + "/sub/lib")
	if err != nil {
		t.Fatal(err)
	}
	if lib.Root() == "" {
		t.Error("empty root")
	}
	if _, err := Open(""); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestPutGetModelRoundTrip(t *testing.T) {
	lib, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	model := testModel("ripple-adder", 8, false)
	if err := lib.PutModel("ripple-adder", 4, model); err != nil {
		t.Fatal(err)
	}
	back, err := lib.GetModel("ripple-adder", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if back.P(5) != model.P(5) {
		t.Errorf("round trip lost coefficients")
	}
	if _, err := lib.GetModel("ripple-adder", 8, false); err == nil {
		t.Error("missing width found")
	}
	if _, err := lib.GetModel("cla-adder", 4, false); err == nil {
		t.Error("missing module found")
	}
}

func TestEnhancedLookupRules(t *testing.T) {
	lib, _ := Open(t.TempDir())
	if err := lib.PutModel("csa-multiplier", 8, testModel("csa", 16, true)); err != nil {
		t.Fatal(err)
	}
	// enhanced request satisfied
	if _, err := lib.GetModel("csa-multiplier", 8, true); err != nil {
		t.Errorf("enhanced lookup failed: %v", err)
	}
	// basic request satisfied by the enhanced model
	if _, err := lib.GetModel("csa-multiplier", 8, false); err != nil {
		t.Errorf("basic lookup via enhanced failed: %v", err)
	}
	// basic-only store cannot satisfy enhanced request
	if err := lib.PutModel("absval", 8, testModel("absval", 8, false)); err != nil {
		t.Fatal(err)
	}
	if _, err := lib.GetModel("absval", 8, true); err == nil {
		t.Error("basic model satisfied enhanced request")
	}
}

func TestPutModelValidates(t *testing.T) {
	lib, _ := Open(t.TempDir())
	bad := &core.Model{Module: "x", InputBits: 4} // missing basic table
	if err := lib.PutModel("x", 4, bad); err == nil {
		t.Error("invalid model stored")
	}
}

func TestList(t *testing.T) {
	lib, _ := Open(t.TempDir())
	mustPut := func(module string, width, bits int, enh bool) {
		t.Helper()
		if err := lib.PutModel(module, width, testModel(module, bits, enh)); err != nil {
			t.Fatal(err)
		}
	}
	mustPut("ripple-adder", 8, 16, false)
	mustPut("ripple-adder", 4, 8, false)
	mustPut("csa-multiplier", 8, 16, true)
	entries, err := lib.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	want := []Entry{
		{"csa-multiplier", 8, true},
		{"ripple-adder", 4, false},
		{"ripple-adder", 8, false},
	}
	for i, e := range want {
		if entries[i] != e {
			t.Errorf("entry %d = %+v, want %+v", i, entries[i], e)
		}
	}
}

func fitTestParam(t *testing.T) *regress.ParamModel {
	t.Helper()
	law := func(i, w int) float64 { return float64(i) * (3*float64(w) + 5) }
	var protos []regress.Prototype
	for _, w := range regress.SetThi.Widths() {
		m := 2 * w
		model := &core.Model{Module: "ripple-adder", InputBits: m, Basic: make([]core.Coef, m)}
		for i := 1; i <= m; i++ {
			model.Basic[i-1] = core.Coef{P: law(i, w), Count: 5}
		}
		protos = append(protos, regress.Prototype{Width: w, Model: model})
	}
	pm, err := regress.Fit("ripple-adder", protos, regress.Linear)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

func TestParamRoundTripAndSynthesisFallback(t *testing.T) {
	lib, _ := Open(t.TempDir())
	pm := fitTestParam(t)
	if err := lib.PutParam(pm); err != nil {
		t.Fatal(err)
	}
	back, err := lib.GetParam("ripple-adder")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := pm.Coefficient(3, 12)
	b, _ := back.Coefficient(3, 12)
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("param round trip: %v vs %v", a, b)
	}

	// Model(): no instance stored -> synthesized from regression.
	model, synthesized, err := lib.Model("ripple-adder", 12, false)
	if err != nil {
		t.Fatal(err)
	}
	if !synthesized {
		t.Error("expected synthesis fallback")
	}
	if model.InputBits != 24 {
		t.Errorf("synthesized bits = %d", model.InputBits)
	}

	// After storing an instance, it wins over synthesis.
	if err := lib.PutModel("ripple-adder", 12, testModel("ripple-adder", 24, false)); err != nil {
		t.Fatal(err)
	}
	model, synthesized, err = lib.Model("ripple-adder", 12, false)
	if err != nil {
		t.Fatal(err)
	}
	if synthesized {
		t.Error("instance model not preferred")
	}
	if model.P(2) != 6 { // testModel law
		t.Errorf("wrong model returned: p2 = %v", model.P(2))
	}

	// Enhanced request cannot be synthesized.
	if _, _, err := lib.Model("ripple-adder", 10, true); err == nil {
		t.Error("enhanced synthesis accepted")
	}
	// Unknown family with no regression.
	if _, _, err := lib.Model("cla-adder", 8, false); err == nil {
		t.Error("unknown family resolved")
	}
}
