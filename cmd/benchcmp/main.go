// Command benchcmp is the CI bench-regression gate: it compares two
// benchmark JSON files produced by cmd/benchjson (or cmd/hdload) and
// fails (exit 1) when the new run regresses a higher-is-better metric
// beyond a tolerance, when the worker-scaling ratio drops below a floor,
// or when an absolute budget is exceeded.
//
//	go run ./cmd/benchcmp -old BENCH_characterize.json -new BENCH_fresh.json \
//	    -metric patterns/sec -max-regress 0.25
//
// A baseline record matches the fresh record of the same name. Failing
// that, it matches the fresh record whose name, minus the "-N" suffix the
// testing package appends at GOMAXPROCS N > 1, equals it — so a baseline
// recorded on one CPU gates a run on a multi-CPU host. Exact names win,
// so a benchmark whose own name ends in "-16" keeps matching itself.
//
// The scaling check (-min-scale) compares the metric of the -scale-target
// benchmark against the -scale-base one within the NEW file; it only makes
// sense on multi-core runners, so it is off by default and enabled
// explicitly by the CI workflow.
//
// Absolute budgets gate the NEW run alone, independent of any baseline
// drift: -max-p99 caps the p99-ns metric, -max-allocs caps allocs/op,
// -min-qps floors qps. -budget-match restricts the budgets to records
// whose name contains the substring, so the serve gate can hold the
// unary and streaming planes to different ceilings in two invocations. A
// budget that matches no record in the new run fails the gate — a typo
// must not read as a pass.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"hdpower/internal/atomicio"
)

// record mirrors cmd/benchjson's output schema. NumCPU is 0 and Backend
// empty in baselines written before those fields existed; GOMAXPROCS is 0
// when the name carries no "-N" suffix.
type record struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Backend    string             `json:"backend"`
	Metrics    map[string]float64 `json:"metrics"`
}

// baseName is the record's name without its "-<gomaxprocs>" suffix.
func (r record) baseName() string {
	if r.GOMAXPROCS <= 0 {
		return r.Name
	}
	return strings.TrimSuffix(r.Name, "-"+strconv.Itoa(r.GOMAXPROCS))
}

func main() {
	var (
		oldPath     = flag.String("old", "", "baseline benchmark JSON (committed)")
		newPath     = flag.String("new", "", "fresh benchmark JSON")
		metric      = flag.String("metric", "patterns/sec", "higher-is-better metric to gate on")
		maxRegress  = flag.Float64("max-regress", 0.25, "maximum tolerated fractional regression (0.25 = 25%)")
		minScale    = flag.Float64("min-scale", 0, "minimum scale-target/scale-base ratio in the new run (0 disables)")
		scaleBase   = flag.String("scale-base", "workers=1", "benchmark name substring of the scaling baseline")
		scaleTarget = flag.String("scale-target", "workers=8", "benchmark name substring of the scaling target")
		minSpeedup  = flag.Float64("min-speedup", 0, "minimum speedup-target/speedup-base ratio in the new run (0 disables); gates the bit-parallel backend's single-core advantage")
		speedBase   = flag.String("speedup-base", "CharacterizeParallel/workers=1", "benchmark name substring of the speedup baseline (event backend)")
		speedTarget = flag.String("speedup-target", "CharacterizeBitParallel/workers=1", "benchmark name substring of the speedup target (bit-parallel backend)")
		maxP99      = flag.Float64("max-p99", 0, "absolute p99-ns budget for matching new-run records (0 disables)")
		maxAllocs   = flag.Float64("max-allocs", -1, "absolute allocs/op ceiling for matching new-run records (negative disables)")
		minQPS      = flag.Float64("min-qps", 0, "absolute qps floor for matching new-run records (0 disables)")
		budgetMatch = flag.String("budget-match", "", "restrict the absolute budgets to new-run records whose name contains this substring")
	)
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -old and -new are required")
		flag.Usage()
		os.Exit(2)
	}
	var budgets []budgetGate
	if *maxP99 > 0 {
		budgets = append(budgets, budgetGate{metric: "p99-ns", limit: *maxP99, match: *budgetMatch})
	}
	if *maxAllocs >= 0 {
		budgets = append(budgets, budgetGate{metric: "allocs/op", limit: *maxAllocs, match: *budgetMatch})
	}
	if *minQPS > 0 {
		budgets = append(budgets, budgetGate{metric: "qps", limit: *minQPS, floor: true, match: *budgetMatch})
	}
	failures, err := run(os.Stdout, *oldPath, *newPath, *metric, *maxRegress, budgets,
		ratioGate{floor: *minScale, base: *scaleBase, target: *scaleTarget, label: "scaling"},
		ratioGate{floor: *minSpeedup, base: *speedBase, target: *speedTarget, label: "speedup"})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
		os.Exit(2)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchcmp: FAIL: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchcmp: ok")
}

// load reads one benchmark JSON file. Records that do not fit the current
// schema — committed baselines can long outlive the tool that wrote them —
// are skipped with a note instead of failing the whole comparison; only a
// file with no usable records at all is an error.
//
// Files written by cmd/hdload carry atomicio's checksum trailer;
// atomicio.ReadFile strips and verifies it, and passes trailer-less files
// (benchjson stdout redirects) through untouched.
func load(path string) (recs []record, notes []string, err error) {
	data, err := atomicio.ReadFile(path)
	if err != nil && !errors.Is(err, atomicio.ErrNoChecksum) {
		return nil, nil, err
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(data, &raws); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	for i, raw := range raws {
		var r record
		if derr := json.Unmarshal(raw, &r); derr != nil {
			notes = append(notes, fmt.Sprintf("%s: skipping record %d: %v (older schema?)", path, i, derr))
			continue
		}
		if r.Name == "" {
			notes = append(notes, fmt.Sprintf("%s: skipping record %d: no benchmark name (older schema?)", path, i))
			continue
		}
		if len(r.Metrics) == 0 {
			notes = append(notes, fmt.Sprintf("%s: skipping %s: no metrics (older schema?)", path, r.Name))
			continue
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, notes, fmt.Errorf("%s: no usable benchmark records", path)
	}
	return recs, notes, nil
}

// run performs the comparison and returns human-readable failures.
// I/O problems and malformed inputs come back as err (exit 2, not a
// regression verdict).
func run(out io.Writer, oldPath, newPath, metric string, maxRegress float64, budgets []budgetGate, gates ...ratioGate) ([]string, error) {
	oldRecs, notes, err := load(oldPath)
	if err != nil {
		return nil, err
	}
	newRecs, newNotes, err := load(newPath)
	if err != nil {
		return nil, err
	}
	for _, note := range append(notes, newNotes...) {
		fmt.Fprintf(out, "note: %s\n", note)
	}
	if oc, nc := hostCPUs(oldRecs), hostCPUs(newRecs); oc > 0 || nc > 0 {
		fmt.Fprintf(out, "host cpus: baseline %s, new run %s\n", cpuLabel(oc), cpuLabel(nc))
		if oc > 0 && nc > 0 && oc != nc {
			fmt.Fprintf(out, "note: core counts differ; absolute throughput deltas reflect hardware, not code\n")
		}
	}
	failures := compare(out, oldRecs, newRecs, metric, maxRegress)
	for _, g := range gates {
		if g.floor > 0 {
			failures = append(failures, checkRatio(out, newRecs, metric, g)...)
		}
	}
	for _, b := range budgets {
		failures = append(failures, checkBudget(out, newRecs, b)...)
	}
	return failures, nil
}

// budgetGate is an absolute bound on one metric of the new run: a ceiling
// by default, a floor when floor is set. match restricts it to records
// whose name contains the substring ("" = every record with the metric).
type budgetGate struct {
	metric string
	limit  float64
	floor  bool
	match  string
}

// checkBudget enforces one absolute budget over the new run. No matching
// record is itself a failure: a gate that silently checked nothing would
// pass forever.
func checkBudget(out io.Writer, recs []record, b budgetGate) []string {
	kind := "ceiling"
	if b.floor {
		kind = "floor"
	}
	var failures []string
	checked := 0
	for _, r := range recs {
		if b.match != "" && !strings.Contains(r.Name, b.match) {
			continue
		}
		v, ok := r.Metrics[b.metric]
		if !ok {
			continue
		}
		checked++
		fmt.Fprintf(out, "budget %s: %s = %g (%s %g)\n", b.metric, r.Name, v, kind, b.limit)
		if b.floor && v < b.limit {
			failures = append(failures, fmt.Sprintf(
				"%s: %s = %g below floor %g", r.Name, b.metric, v, b.limit))
		}
		if !b.floor && v > b.limit {
			failures = append(failures, fmt.Sprintf(
				"%s: %s = %g over budget %g", r.Name, b.metric, v, b.limit))
		}
	}
	if checked == 0 {
		return []string{fmt.Sprintf(
			"budget %s (match %q): no record in the new run carries the metric", b.metric, b.match)}
	}
	return failures
}

// hostCPUs returns the CPU count stamped in a record set (0 if absent).
func hostCPUs(recs []record) int {
	for _, r := range recs {
		if r.NumCPU > 0 {
			return r.NumCPU
		}
	}
	return 0
}

func cpuLabel(n int) string {
	if n <= 0 {
		return "unknown"
	}
	return fmt.Sprintf("%d", n)
}

// compare gates every baseline benchmark's metric against the fresh run.
func compare(out io.Writer, oldRecs, newRecs []record, metric string, maxRegress float64) []string {
	byName := make(map[string]record, len(newRecs))
	byBase := make(map[string]record, len(newRecs))
	for _, r := range newRecs {
		byName[r.Name] = r
		byBase[r.baseName()] = r
	}
	var failures []string
	fmt.Fprintf(out, "%-50s %14s %14s %8s\n", "benchmark", "old "+metric, "new "+metric, "delta")
	for _, o := range oldRecs {
		ov, ok := o.Metrics[metric]
		if !ok {
			// Baseline rows without the gated metric don't constrain the run.
			continue
		}
		n, ok := byName[o.Name]
		if !ok {
			n, ok = byBase[o.Name]
		}
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline, missing from new run", o.Name))
			continue
		}
		nv, ok := n.Metrics[metric]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: new run lacks metric %q", o.Name, metric))
			continue
		}
		// Only same-backend records compare: an event baseline against a
		// bit-parallel candidate (or vice versa) would read the ~10x engine
		// gap as a huge improvement or regression. Records without a stamped
		// backend (older baselines) compare as before.
		if o.Backend != "" && n.Backend != "" && o.Backend != n.Backend {
			fmt.Fprintf(out, "note: %s: backend changed (%s -> %s); not compared\n",
				o.Name, o.Backend, n.Backend)
			continue
		}
		delta := 0.0
		if ov > 0 {
			delta = nv/ov - 1
		}
		fmt.Fprintf(out, "%-50s %14.1f %14.1f %+7.1f%%\n", o.Name, ov, nv, delta*100)
		if ov > 0 && nv < ov*(1-maxRegress) {
			failures = append(failures, fmt.Sprintf(
				"%s: %s regressed %.1f%% (%.1f -> %.1f, tolerance %.0f%%)",
				o.Name, metric, -delta*100, ov, nv, maxRegress*100))
		}
	}
	return failures
}

// ratioGate is a floor on the metric ratio of two benchmarks within the
// new run: worker scaling (workers=8 over workers=1) and the bit-parallel
// backend's speedup (BitParallel workers=1 over event workers=1) are both
// instances of it.
type ratioGate struct {
	floor        float64
	base, target string
	label        string
}

// checkRatio enforces one ratio floor within the new run.
func checkRatio(out io.Writer, recs []record, metric string, g ratioGate) []string {
	find := func(sub string) (record, bool) {
		for _, r := range recs {
			if strings.Contains(r.Name, sub) {
				return r, true
			}
		}
		return record{}, false
	}
	b, okB := find(g.base)
	tr, okT := find(g.target)
	if !okB || !okT {
		return []string{fmt.Sprintf("%s check: missing %q or %q in new run", g.label, g.base, g.target)}
	}
	bv, tv := b.Metrics[metric], tr.Metrics[metric]
	if bv <= 0 {
		return []string{fmt.Sprintf("%s check: baseline %s has %s = %v", g.label, b.Name, metric, bv)}
	}
	ratio := tv / bv
	fmt.Fprintf(out, "%s %s: %s/%s = %.2fx (floor %.2fx)\n", g.label, metric, g.target, g.base, ratio, g.floor)
	if ratio < g.floor {
		return []string{fmt.Sprintf("%s: %s is %.2fx of %s in %s, floor %.2fx",
			g.label, g.target, ratio, g.base, metric, g.floor)}
	}
	return nil
}
