package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// wantMarkers scans a fixture module for expectation markers of the form
//
//	code() // want check1 check2
//
// A marker trailing code applies to its own line; a marker alone on a
// line applies to the next line (used for //hdlint:allow directives,
// which consume the whole line comment). Returns "path:line:check"
// strings, one per expected diagnostic.
func wantMarkers(t *testing.T, root string) []string {
	t.Helper()
	var want []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for i, line := range strings.Split(string(raw), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			target := i + 1 // 1-based line of the marker
			if strings.TrimSpace(line[:idx]) == "" {
				target++ // standalone marker applies to the next line
			}
			for _, check := range strings.Fields(line[idx+len("// want "):]) {
				want = append(want, fmt.Sprintf("%s:%d:%s", rel, target, check))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	return want
}

func runFixture(t *testing.T, root string) []Diagnostic {
	t.Helper()
	m, err := Load(root)
	if err != nil {
		t.Fatalf("Load(%s): %v", root, err)
	}
	return Run(m, Analyzers(), DefaultConfig())
}

func diagKeys(diags []Diagnostic) []string {
	keys := make([]string, len(diags))
	for i, d := range diags {
		keys[i] = fmt.Sprintf("%s:%d:%s", d.Path, d.Line, d.Check)
	}
	sort.Strings(keys)
	return keys
}

// TestCleanFixture: a module written to the repo's contracts — seeded
// randomness, atomicio-only writes, a consistent armed registry,
// balanced hooks, a non-test caller for every export, and one justified
// (used) escape hatch — lints clean.
func TestCleanFixture(t *testing.T) {
	diags := runFixture(t, filepath.Join("testdata", "clean"))
	if len(diags) != 0 {
		t.Fatalf("clean fixture produced %d diagnostics:\n%s",
			len(diags), strings.Join(diagKeys(diags), "\n"))
	}
}

// TestDirtyFixture: every marked violation is reported, nothing else is,
// and suppressed lines stay quiet.
func TestDirtyFixture(t *testing.T) {
	root := filepath.Join("testdata", "dirty")
	got := diagKeys(runFixture(t, root))
	want := wantMarkers(t, root)

	if len(want) == 0 {
		t.Fatal("dirty fixture has no want markers; fixture is broken")
	}
	wantSet := make(map[string]int)
	for _, w := range want {
		wantSet[w]++
	}
	for _, g := range got {
		if wantSet[g] > 0 {
			wantSet[g]--
			continue
		}
		t.Errorf("unexpected diagnostic %s", g)
	}
	for w, n := range wantSet {
		for ; n > 0; n-- {
			t.Errorf("missing expected diagnostic %s", w)
		}
	}
}

// TestDirtyFixtureCoversEveryAnalyzer guards the fixture itself: each
// analyzer (and the allow-hygiene pass) must have at least one surviving
// finding, so a silently broken analyzer cannot pass the suite.
func TestDirtyFixtureCoversEveryAnalyzer(t *testing.T) {
	diags := runFixture(t, filepath.Join("testdata", "dirty"))
	byCheck := make(map[string]int)
	for _, d := range diags {
		byCheck[d.Check]++
	}
	for _, a := range Analyzers() {
		if byCheck[a.Name] == 0 {
			t.Errorf("analyzer %s found nothing in the dirty fixture", a.Name)
		}
	}
	if byCheck["allow"] == 0 {
		t.Error("allow-hygiene pass found nothing in the dirty fixture")
	}
}

// TestSelectedAnalyzersOnly: running a subset reports exactly that
// subset's findings plus the escape-hatch hygiene findings that concern
// it (the hdlint -checks path). Directives for checks that did not run
// are not called unused; unknown checks and missing reasons are reported
// whatever runs.
func TestSelectedAnalyzersOnly(t *testing.T) {
	root := filepath.Join("testdata", "dirty")
	m, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	got := diagKeys(Run(m, []*Analyzer{AtomicWriteAnalyzer}, DefaultConfig()))
	var want []string
	for _, w := range wantMarkers(t, root) {
		if strings.HasSuffix(w, ":atomicwrite") || strings.HasSuffix(w, ":allow") {
			want = append(want, w)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("atomicwrite-only run:\ngot\n%s\nwant\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestRepoClean pins the tentpole invariant: the repository itself has
// zero hdlint findings, with every analyzer at once and with each alone
// (hdlint -checks <name>). Any new violation fails go test, not just CI's
// hdlint step.
func TestRepoClean(t *testing.T) {
	m, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(m, Analyzers(), DefaultConfig()); len(diags) != 0 {
		t.Fatalf("repository has %d hdlint findings:\n%s",
			len(diags), strings.Join(diagKeys(diags), "\n"))
	}
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			if diags := Run(m, []*Analyzer{a}, DefaultConfig()); len(diags) != 0 {
				t.Fatalf("hdlint -checks %s has %d findings:\n%s",
					a.Name, len(diags), strings.Join(diagKeys(diags), "\n"))
			}
		})
	}
}
