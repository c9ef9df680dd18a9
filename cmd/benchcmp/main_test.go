package main

import (
	"io"

	"hdpower/internal/atomicio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func rec(name string, pps float64) record {
	return record{Name: name, Iterations: 2, Metrics: map[string]float64{"patterns/sec": pps, "ns/op": 1e6}}
}

func TestCompareWithinTolerance(t *testing.T) {
	oldRecs := []record{rec("B/workers=1", 1000), rec("B/workers=8", 4000)}
	newRecs := []record{rec("B/workers=1", 900), rec("B/workers=8", 3200)}
	if fails := compare(io.Discard, oldRecs, newRecs, "patterns/sec", 0.25); len(fails) != 0 {
		t.Fatalf("unexpected failures: %v", fails)
	}
}

func TestCompareRegression(t *testing.T) {
	oldRecs := []record{rec("B/workers=1", 1000)}
	newRecs := []record{rec("B/workers=1", 700)}
	fails := compare(io.Discard, oldRecs, newRecs, "patterns/sec", 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "regressed") {
		t.Fatalf("failures = %v", fails)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	oldRecs := []record{rec("B/workers=1", 1000), rec("B/workers=8", 4000)}
	newRecs := []record{rec("B/workers=1", 1000)}
	fails := compare(io.Discard, oldRecs, newRecs, "patterns/sec", 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "missing") {
		t.Fatalf("failures = %v", fails)
	}
}

func TestCompareMissingMetricInNewRun(t *testing.T) {
	oldRecs := []record{rec("B/workers=1", 1000)}
	newRecs := []record{{Name: "B/workers=1", Iterations: 2, Metrics: map[string]float64{"ns/op": 1}}}
	fails := compare(io.Discard, oldRecs, newRecs, "patterns/sec", 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "lacks metric") {
		t.Fatalf("failures = %v", fails)
	}
}

// TestCompareAcrossGOMAXPROCS gates a fresh run on a 2-CPU host, whose
// names carry the testing package's "-2" suffix, against a baseline
// recorded on one CPU without it; exact names still win, so a name that
// really ends in "-16" matches itself.
func TestCompareAcrossGOMAXPROCS(t *testing.T) {
	procs := func(r record, n int) record {
		r.Name += "-" + strconv.Itoa(n)
		r.NumCPU, r.GOMAXPROCS = n, n
		return r
	}
	oldRecs := []record{rec("B/workers=1", 1000), rec("B/workers=8", 4000), rec("B/bits-16", 500)}
	for i := range oldRecs {
		oldRecs[i].NumCPU = 1
	}
	newRecs := []record{procs(rec("B/workers=1", 950), 2), procs(rec("B/workers=8", 2000), 2),
		rec("B/bits-16", 520)}
	newRecs[2].GOMAXPROCS = 16 // benchjson reads any trailing "-N" as the width
	fails := compare(io.Discard, oldRecs, newRecs, "patterns/sec", 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "B/workers=8: patterns/sec regressed") {
		t.Fatalf("want exactly the workers=8 regression, got %v", fails)
	}
}

func TestScaling(t *testing.T) {
	gate := func(target string) ratioGate {
		return ratioGate{floor: 1.5, base: "workers=1", target: target, label: "scaling"}
	}
	recs := []record{rec("B/workers=1", 1000), rec("B/workers=8", 1400)}
	fails := checkRatio(io.Discard, recs, "patterns/sec", gate("workers=8"))
	if len(fails) != 1 {
		t.Fatalf("1.4x under a 1.5x floor must fail: %v", fails)
	}
	recs[1].Metrics["patterns/sec"] = 1600
	if fails := checkRatio(io.Discard, recs, "patterns/sec", gate("workers=8")); len(fails) != 0 {
		t.Fatalf("1.6x over a 1.5x floor must pass: %v", fails)
	}
	if fails := checkRatio(io.Discard, recs, "patterns/sec", gate("workers=64")); len(fails) != 1 {
		t.Fatalf("missing target must fail: %v", fails)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	os.WriteFile(oldPath, []byte(`[{"name":"B/workers=1","iterations":2,"metrics":{"patterns/sec":1000}}]`), 0o644)
	os.WriteFile(newPath, []byte(`[{"name":"B/workers=1","iterations":2,"metrics":{"patterns/sec":1100}}]`), 0o644)
	fails, err := run(io.Discard, oldPath, newPath, "patterns/sec", 0.25, nil)
	if err != nil || len(fails) != 0 {
		t.Fatalf("run: %v %v", fails, err)
	}

	// Empty and malformed inputs are tool errors, not verdicts.
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`[]`), 0o644)
	if _, err := run(io.Discard, oldPath, empty, "patterns/sec", 0.25, nil); err == nil {
		t.Fatal("empty new file must error")
	}
	if _, err := run(io.Discard, filepath.Join(dir, "nope.json"), newPath, "patterns/sec", 0.25, nil); err == nil {
		t.Fatal("missing old file must error")
	}
}

// TestOlderSchemaBaseline: baselines written by earlier benchjson versions
// — records missing names or metrics, or fields whose types changed — are
// reported and skipped, and the usable rows still gate the run.
func TestOlderSchemaBaseline(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	// Record 0 predates the name field, record 1 has metrics as a string
	// (type change), record 2 predates metrics, record 3 is usable.
	mixed := `[
	  {"iterations":2,"metrics":{"patterns/sec":900}},
	  {"name":"B/legacy","iterations":2,"metrics":"12345"},
	  {"name":"B/no-metrics","iterations":2},
	  {"name":"B/workers=1","iterations":2,"metrics":{"patterns/sec":1000}}
	]`
	if err := os.WriteFile(oldPath, []byte(mixed), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath,
		[]byte(`[{"name":"B/workers=1","iterations":2,"metrics":{"patterns/sec":1100}}]`), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	fails, err := run(&out, oldPath, newPath, "patterns/sec", 0.25, nil)
	if err != nil {
		t.Fatalf("older-schema baseline must not error: %v", err)
	}
	if len(fails) != 0 {
		t.Fatalf("unexpected failures: %v", fails)
	}
	if got := out.String(); strings.Count(got, "older schema?") != 3 {
		t.Errorf("want 3 skip notes, output:\n%s", got)
	}

	// A baseline with nothing usable at all is still a tool error.
	allBad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(allBad, []byte(`[{"iterations":2}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(io.Discard, allBad, newPath, "patterns/sec", 0.25, nil); err == nil ||
		!strings.Contains(err.Error(), "no usable benchmark records") {
		t.Fatalf("all-bad baseline: %v", err)
	}
}

// TestCompareSkipsCrossBackend: a baseline row and a fresh row with the
// same name but different stamped backends must not be compared — the
// engine gap is not a regression — and must not fail the gate either.
func TestCompareSkipsCrossBackend(t *testing.T) {
	o := rec("B/workers=1", 70000)
	o.Backend = "bitparallel"
	n := rec("B/workers=1", 6500)
	n.Backend = "event"
	var out strings.Builder
	fails := compare(&out, []record{o}, []record{n}, "patterns/sec", 0.25)
	if len(fails) != 0 {
		t.Fatalf("cross-backend rows must be skipped, got failures: %v", fails)
	}
	if !strings.Contains(out.String(), "backend changed") {
		t.Errorf("skip note missing, output:\n%s", out.String())
	}
	// Unstamped (older) baselines still compare.
	o.Backend = ""
	fails = compare(io.Discard, []record{o}, []record{n}, "patterns/sec", 0.25)
	if len(fails) != 1 {
		t.Fatalf("unstamped baseline must still gate: %v", fails)
	}
}

// TestSpeedupGate drives the bit-parallel-vs-event ratio floor the CI
// bench gate arms with -min-speedup.
func TestSpeedupGate(t *testing.T) {
	gate := ratioGate{
		floor: 5, base: "CharacterizeParallel/workers=1",
		target: "CharacterizeBitParallel/workers=1", label: "speedup",
	}
	recs := []record{
		rec("BenchmarkCharacterizeParallel/workers=1", 6500),
		rec("BenchmarkCharacterizeBitParallel/workers=1", 70000),
	}
	if fails := checkRatio(io.Discard, recs, "patterns/sec", gate); len(fails) != 0 {
		t.Fatalf("10.8x over a 5x floor must pass: %v", fails)
	}
	recs[1].Metrics["patterns/sec"] = 20000
	fails := checkRatio(io.Discard, recs, "patterns/sec", gate)
	if len(fails) != 1 || !strings.Contains(fails[0], "speedup") {
		t.Fatalf("3.1x under a 5x floor must fail: %v", fails)
	}
}

// serveRec fabricates an hdload-shaped record for the budget tests.
func serveRec(name string, p99, allocs, qps float64) record {
	return record{Name: name, Iterations: 100, Backend: "serve",
		Metrics: map[string]float64{"p50-ns": p99 / 2, "p99-ns": p99, "allocs/op": allocs, "qps": qps}}
}

// TestBudgetGates drives the absolute-budget checks the serve gate arms:
// a p99 ceiling, an allocs/op ceiling and a qps floor over the new run.
func TestBudgetGates(t *testing.T) {
	recs := []record{
		serveRec("ServeEstimate/unary/mix=mixed/conc=4", 2e6, 80, 5000),
		serveRec("ServeEstimate/stream/mix=mixed/conc=4", 8e6, 2, 60000),
	}
	// Within budget: nothing fails.
	for _, b := range []budgetGate{
		{metric: "p99-ns", limit: 10e6},
		{metric: "allocs/op", limit: 100},
		{metric: "qps", limit: 1000, floor: true},
	} {
		if fails := checkBudget(io.Discard, recs, b); len(fails) != 0 {
			t.Errorf("budget %+v: unexpected failures %v", b, fails)
		}
	}
	// Ceiling breach: the unary record's p99 is over.
	fails := checkBudget(io.Discard, recs, budgetGate{metric: "p99-ns", limit: 1e6})
	if len(fails) != 2 || !strings.Contains(fails[0], "over budget") {
		t.Fatalf("p99 ceiling: %v", fails)
	}
	// Floor breach only where matched.
	fails = checkBudget(io.Discard, recs, budgetGate{metric: "qps", limit: 10000, floor: true, match: "unary"})
	if len(fails) != 1 || !strings.Contains(fails[0], "below floor") {
		t.Fatalf("qps floor: %v", fails)
	}
	// The match filter keeps the passing stream record out of a strict
	// unary allocs ceiling and vice versa.
	if fails := checkBudget(io.Discard, recs, budgetGate{metric: "allocs/op", limit: 5, match: "stream"}); len(fails) != 0 {
		t.Fatalf("stream allocs within its own ceiling: %v", fails)
	}
	// A zero ceiling is meaningful (and here violated).
	if fails := checkBudget(io.Discard, recs, budgetGate{metric: "allocs/op", limit: 0, match: "stream"}); len(fails) != 1 {
		t.Fatalf("zero ceiling must gate: %v", fails)
	}
	// A budget that matches nothing must fail, not silently pass.
	fails = checkBudget(io.Discard, recs, budgetGate{metric: "p99-ns", limit: 1e9, match: "no-such-record"})
	if len(fails) != 1 || !strings.Contains(fails[0], "no record") {
		t.Fatalf("unmatched budget: %v", fails)
	}
	fails = checkBudget(io.Discard, recs, budgetGate{metric: "patterns/sec", limit: 1, floor: true})
	if len(fails) != 1 || !strings.Contains(fails[0], "no record") {
		t.Fatalf("absent metric: %v", fails)
	}
}

// TestRunWithBudgets wires budgets through run(): baseline comparison and
// absolute budgets fail independently.
func TestRunWithBudgets(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	body := `[{"name":"ServeEstimate/unary","iterations":5,"metrics":{"qps":5000,"p99-ns":2000000}}]`
	os.WriteFile(oldPath, []byte(body), 0o644)
	os.WriteFile(newPath, []byte(body), 0o644)
	fails, err := run(io.Discard, oldPath, newPath, "qps", 0.25,
		[]budgetGate{{metric: "p99-ns", limit: 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 1 || !strings.Contains(fails[0], "over budget") {
		t.Fatalf("budget must fail through run: %v", fails)
	}
}

// TestLoadChecksummedFile: hdload writes its JSON through atomicio, which
// appends a checksum trailer; load must verify and strip it, and still
// accept trailer-less benchjson files.
func TestLoadChecksummedFile(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "BENCH_serve.json")
	body := []byte(`[{"name":"ServeEstimate/unary","iterations":5,"metrics":{"qps":5000}}]` + "\n")
	if err := atomicio.WriteFile(p, body, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _, err := load(p)
	if err != nil {
		t.Fatalf("checksummed file: %v", err)
	}
	if len(recs) != 1 || recs[0].Name != "ServeEstimate/unary" {
		t.Fatalf("recs = %+v", recs)
	}
}
