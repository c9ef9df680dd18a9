package experiments

import (
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
	"hdpower/internal/stimuli"
)

// sharedSuite is characterized once and reused across tests in this
// package; experiments cache models internally.
var (
	sharedOnce  sync.Once
	sharedSuite *Suite
)

func quickSuite() *Suite {
	sharedOnce.Do(func() { sharedSuite = New(Quick()) })
	return sharedSuite
}

func TestFigure1Shapes(t *testing.T) {
	res, err := quickSuite().Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Modules) != 5 {
		t.Fatalf("modules = %d", len(res.Modules))
	}
	byName := make(map[string]Figure1Module)
	for _, m := range res.Modules {
		byName[m.Module] = m
		if len(m.P) != 16 {
			t.Fatalf("%s: %d classes, want 16", m.Module, len(m.P))
		}
		// Global trend: p grows with Hd over the lower half for every
		// module, and through the top for all but absval. (Flipping all
		// bits of a two's-complement word maps x to -x-1, which leaves
		// |x| almost unchanged — so the absval unit genuinely switches
		// less at Hd = m than at Hd = m/2.)
		if !(m.P[7] > m.P[0] && m.P[15] > m.P[0]) {
			t.Errorf("%s: coefficients not increasing: p1=%v p8=%v p16=%v",
				m.Module, m.P[0], m.P[7], m.P[15])
		}
		if m.Module != "absval" && m.P[15] <= m.P[7] {
			t.Errorf("%s: top coefficients not increasing: p8=%v p16=%v",
				m.Module, m.P[7], m.P[15])
		}
		for i, p := range m.P {
			if p <= 0 || math.IsNaN(p) {
				t.Errorf("%s: p_%d = %v", m.Module, i+1, p)
			}
		}
	}
	// Multipliers burn more charge than adders at full input activity.
	if byName["csa-multiplier"].P[15] <= byName["ripple-adder"].P[15] {
		t.Errorf("csa-multiplier p16 %v not above ripple-adder p16 %v",
			byName["csa-multiplier"].P[15], byName["ripple-adder"].P[15])
	}
	// Paper: relative deviations decrease for larger Hd.
	for _, m := range res.Modules {
		if m.Epsilon[15] >= m.Epsilon[0] {
			t.Errorf("%s: eps_16 %.3f not below eps_1 %.3f",
				m.Module, m.Epsilon[15], m.Epsilon[0])
		}
	}
	if !strings.Contains(res.String(), "Figure 1") {
		t.Error("String() missing title")
	}
}

func TestFigure2Shapes(t *testing.T) {
	res, err := quickSuite().Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if res.InputBits != 16 {
		t.Fatalf("input bits = %d", res.InputBits)
	}
	// The enhanced model must split the basic curve at small Hd: the
	// all-stable-zeros class below the none-zero class.
	splitClasses := 0
	for i := 2; i <= 6; i++ {
		if res.AllZero[i-1] < res.NoneZero[i-1] {
			splitClasses++
		}
	}
	if splitClasses < 3 {
		t.Errorf("enhanced model split only %d of 5 low-Hd classes", splitClasses)
	}
	if res.Spread(3) <= 0 {
		t.Errorf("spread at Hd=3 is %v", res.Spread(3))
	}
	if !strings.Contains(res.String(), "Figure 2") {
		t.Error("String() missing title")
	}
}

func TestTable1Shapes(t *testing.T) {
	res, err := quickSuite().Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 { // 5 modules x 1 quick width
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		for _, dt := range stimuli.AllDataTypes() {
			if math.IsNaN(row.CycleErr[dt]) || math.IsInf(row.CycleErr[dt], 0) {
				t.Errorf("%s: cycle err for %s = %v", row.Module, dt, row.CycleErr[dt])
			}
			// The central Table 1 observation: cycle errors are much
			// larger than average errors.
			if row.CycleErr[dt] < abs(row.AverageErr[dt]) {
				t.Errorf("%s/%s: cycle err %.1f below avg err %.1f",
					row.Module, dt, row.CycleErr[dt], abs(row.AverageErr[dt]))
			}
		}
		// Random data (characterization statistics) gives small average
		// errors; the counter stream is the stress case.
		if abs(row.AverageErr[stimuli.TypeRandom]) > 12 {
			t.Errorf("%s: avg err on random stream %.1f%%", row.Module,
				row.AverageErr[stimuli.TypeRandom])
		}
	}
	// Column means echo the paper's ordering: data type I easiest, V hardest
	// for the average-power estimate.
	if res.AvgAverage[stimuli.TypeRandom] >= res.AvgAverage[stimuli.TypeCounter] {
		t.Errorf("avg |eps| I %.1f not below V %.1f",
			res.AvgAverage[stimuli.TypeRandom], res.AvgAverage[stimuli.TypeCounter])
	}
	out := res.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "average") {
		t.Error("String() incomplete")
	}
}

func TestTable2EnhancedWins(t *testing.T) {
	res, err := quickSuite().Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var counter Table2Row
	found := false
	for _, row := range res.Rows {
		if row.DataType == stimuli.TypeCounter {
			counter = row
			found = true
		}
	}
	if !found {
		t.Fatal("no counter row")
	}
	// The paper's headline: for data type V the enhanced model slashes
	// the average-charge error.
	if abs(counter.AvgEnhanced) >= abs(counter.AvgBasic) {
		t.Errorf("enhanced avg err %.1f not below basic %.1f on counter stream",
			counter.AvgEnhanced, counter.AvgBasic)
	}
	if !strings.Contains(res.String(), "Table 2") {
		t.Error("String() missing title")
	}
}

func TestFigure9AnalyticTracksExtracted(t *testing.T) {
	res, err := quickSuite().Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalVariation > 0.35 {
		t.Errorf("total variation = %.3f", res.TotalVariation)
	}
	if math.Abs(res.Extracted.Sum()-1) > 1e-9 || math.Abs(res.Estimated.Sum()-1) > 1e-9 {
		t.Error("distributions not normalized")
	}
	if !strings.Contains(res.String(), "Figure 9") {
		t.Error("String() missing title")
	}
}

func TestFigure6DistributionBeatsAverage(t *testing.T) {
	res, err := quickSuite().Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Dist.Sum()-1) > 1e-9 {
		t.Errorf("distribution sum = %v", res.Dist.Sum())
	}
	// The multiplier's coefficients are nonlinear and the audio
	// distribution is skewed, so reading power at the average Hd must
	// differ measurably from the distribution-weighted power. (The
	// paper's transistor-level coefficients grow nearly quadratically
	// and yield a ~30% gap; our gate-level substrate saturates instead,
	// giving a small but still directional gap — 4.8% at this scale
	// with the counter pair stream and the two-phase reference — see
	// EXPERIMENTS.md.)
	if math.Abs(res.AvgHdError()) < 1.0 {
		t.Errorf("avg-Hd error only %.1f%%, expected a material gap", res.AvgHdError())
	}
	// And the distribution estimate must be the better one relative to
	// simulation.
	dDist := math.Abs(res.PowerDist - res.SimulatedAvg)
	dAvg := math.Abs(res.PowerAvgHd - res.SimulatedAvg)
	if dDist >= dAvg {
		t.Errorf("distribution estimate (off by %.2f) not better than avg-Hd (off by %.2f)",
			dDist, dAvg)
	}
	if !strings.Contains(res.String(), "Figure 6") {
		t.Error("String() missing title")
	}
}

// TestSuiteWorkerCountIndependent pins the suite-level determinism
// contract: the same configuration produces bit-identical models no
// matter how many workers characterize them.
func TestSuiteWorkerCountIndependent(t *testing.T) {
	cfg := Quick()
	cfg.CharPatterns = 600
	cfg.Workers = 1
	ref, err := New(cfg).Model("csa-multiplier", 4, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		cfg.Workers = workers
		got, err := New(cfg).Model("csa-multiplier", 4, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Basic, got.Basic) || !reflect.DeepEqual(ref.Enhanced, got.Enhanced) {
			t.Fatalf("workers=%d: model differs from sequential run", workers)
		}
	}
}

// TestModelSingleflight checks that concurrent requests for the same
// instance share one characterization (and exercises the cache under the
// race detector).
func TestModelSingleflight(t *testing.T) {
	cfg := Quick()
	cfg.CharPatterns = 400
	s := New(cfg)
	const callers = 8
	models := make([]*core.Model, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := s.Model("absval", 6, false)
			if err != nil {
				t.Error(err)
				return
			}
			models[i] = m
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if models[i] != models[0] {
			t.Fatalf("caller %d got a distinct model instance", i)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero config accepted")
		}
	}()
	New(Config{})
}

// TestModelRefusesUnbuildableWidth holds the suite to the catalog's width
// decision: an odd Booth width is an error, not a generator panic.
func TestModelRefusesUnbuildableWidth(t *testing.T) {
	_, err := New(Quick()).Model("booth-wallace-multiplier", 5, false)
	const want = "module booth-wallace-multiplier requires an even width, got 5"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestSuiteManifests verifies a ManifestDir-configured suite records one
// flight-recorder manifest per characterized instance.
func TestSuiteManifests(t *testing.T) {
	cfg := Quick()
	cfg.ManifestDir = t.TempDir()
	s := New(cfg)
	if _, err := s.Model("ripple-adder", 8, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Model("ripple-adder", 8, true); err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{
		"ripple-adder-w8.manifest.json",
		"ripple-adder-w8-enh.manifest.json",
	} {
		// Manifests are written through atomicio and carry its checksum
		// trailer; ReadFile verifies and strips it.
		raw, err := atomicio.ReadFile(filepath.Join(cfg.ManifestDir, file))
		if err != nil {
			t.Fatalf("manifest %s: %v", file, err)
		}
		var man core.RunManifest
		if err := json.Unmarshal(raw, &man); err != nil {
			t.Fatalf("manifest %s decode: %v", file, err)
		}
		if man.Module != "ripple-adder-8" || man.Width != 8 ||
			man.PatternsBasic != cfg.CharPatterns || len(man.Coefficients) == 0 {
			t.Errorf("manifest %s content: %+v", file, man)
		}
	}
}
