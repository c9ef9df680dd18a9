// Package lint is the repo's static verification layer: a small,
// stdlib-only (go/parser, go/ast, go/types) analysis framework plus the
// analyzers that machine-enforce the invariants the compiler cannot see —
// the invariants the whole macro-model pipeline rests on.
//
// The paper's table-based Hd model is only trustworthy if characterization
// is bit-identical across worker counts, backends and resume points, and
// crash-safety only holds if every durable artifact goes through
// internal/atomicio. Those properties are global: a single stray
// time.Now(), global math/rand call, map-order-dependent merge, or raw
// os.WriteFile anywhere in the deterministic core silently breaks them.
// Tests catch specific regressions; the analyzers here reject the whole
// hazard class at lint time.
//
// Analyzers (see their files for the precise rules):
//
//	nondeterminism  no time.Now/time.Since, global math/rand, or
//	                map iteration in the deterministic packages
//	atomicwrite     no raw os.WriteFile/os.Create/os.Rename outside
//	                internal/atomicio (tests exempt)
//	faultpoint      fault point names are literal, registered in
//	                faultpoint.Known, planted, and chaos-exercised
//	hookbalance     every PhaseStart call is balanced by a PhaseEnd
//	                on all return paths
//	deadexport      every internal package, exported identifier and
//	                exported method has a non-test caller (perfbench,
//	                cmd/, examples/ and the root package count)
//
// A finding can be suppressed line-by-line with an escape hatch that
// forces the author to leave a reason behind:
//
//	t0 := time.Now() //hdlint:allow nondeterminism wall time is observability-only
//
// The directive may sit on the flagged line or the line directly above.
// Directives with no reason, and directives whose check ran and
// suppressed nothing, are themselves diagnostics — suppressions must not
// rot.
//
// The loader is deliberately self-contained: it discovers the module from
// go.mod, parses every package outside testdata (nested modules such as
// perfbench included), and type-checks each package standalone against
// stub imports. Cross-package types therefore do not resolve — the
// analyzers only rely on locally inferable types (e.g. "is this range
// expression a map?") and on syntactic import tracking, which keeps the
// whole layer dependency-free, hermetic and fast enough to run on every
// build.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Path is the module-relative, slash-separated file path.
	Path string
	// Line and Col locate the finding (1-based).
	Line, Col int
	// Check names the analyzer (or "allow" for escape-hatch hygiene).
	Check string
	// Msg is the human-readable finding.
	Msg string
}

// String renders the diagnostic in the conventional path:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Path, d.Line, d.Col, d.Check, d.Msg)
}

// File is one parsed source file.
type File struct {
	// Path is module-relative and slash-separated.
	Path string
	// Test reports a *_test.go file.
	Test bool
	AST  *ast.File
	// imports maps the local package name (alias or guessed from the
	// path) to the import path, for syntactic qualified-call matching.
	imports map[string]string
	// allows holds the //hdlint:allow directives by line.
	allows map[int][]*allowDirective
}

// allowDirective is one parsed //hdlint:allow comment.
type allowDirective struct {
	line   int
	check  string
	reason string
	used   bool
}

// Package is one directory's worth of parsed files.
type Package struct {
	// Dir is the module-relative directory ("" for the module root).
	Dir string
	// Name is the package name of the primary (non-test) files.
	Name string
	// Files are the primary files; TestFiles the *_test.go files.
	Files     []*File
	TestFiles []*File
	// Info carries best-effort type information for the primary files.
	// Cross-package and stdlib types do not resolve (stub imports); local
	// types do.
	Info *types.Info
}

// Module is a loaded Go module ready for analysis.
type Module struct {
	// Root is the filesystem root (the go.mod directory).
	Root string
	// Path is the module path from go.mod.
	Path string
	Fset *token.FileSet
	// Packages in deterministic (directory) order.
	Packages []*Package
	// Makefile is the raw content of the root Makefile ("" if absent);
	// the faultpoint analyzer greps it for chaos arming specs.
	Makefile string
}

// Position resolves a node position to a module-relative Diagnostic site.
func (m *Module) Position(pos token.Pos) (path string, line, col int) {
	p := m.Fset.Position(pos)
	rel, err := filepath.Rel(m.Root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return filepath.ToSlash(rel), p.Line, p.Column
}

// Config points the analyzers at the repo's layout. The zero value is not
// useful; start from DefaultConfig.
type Config struct {
	// DeterministicDirs are the module-relative package dirs (including
	// their subdirectories) whose results must be bit-identical across
	// worker counts, backends and resume points.
	DeterministicDirs []string
	// AtomicIODir is the one package allowed to touch raw file-write
	// primitives.
	AtomicIODir string
	// FaultpointDir is the package holding the fault-point registry
	// (var Known) and implementation.
	FaultpointDir string
}

// DefaultConfig matches this repository.
func DefaultConfig() Config {
	return Config{
		DeterministicDirs: []string{
			"internal/core",
			"internal/sim",
			"internal/bitsim",
			"internal/stimuli",
			"internal/hddist",
			"internal/telemetry",
		},
		AtomicIODir:   "internal/atomicio",
		FaultpointDir: "internal/faultpoint",
	}
}

// Analyzer is one repo-invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(m *Module, cfg Config) []Diagnostic
}

// Analyzers returns every registered analyzer in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NondeterminismAnalyzer,
		AtomicWriteAnalyzer,
		FaultpointAnalyzer,
		HookBalanceAnalyzer,
		DeadExportAnalyzer,
	}
}

// knownChecks is the set of check names //hdlint:allow may reference.
func knownChecks() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Analyzers() {
		m[a.Name] = true
	}
	return m
}

// Load parses and best-effort type-checks the module rooted at root.
// Directories named testdata (and hidden/underscore dirs) are skipped, so
// analyzer fixtures do not lint themselves.
func Load(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{Root: abs, Path: modPath, Fset: token.NewFileSet()}
	if raw, err := os.ReadFile(filepath.Join(abs, "Makefile")); err == nil {
		m.Makefile = string(raw)
	}

	var dirs []string
	err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != abs && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	imp := &stubImporter{pkgs: make(map[string]*types.Package)}
	for _, dir := range dirs {
		pkg, err := loadPackage(m, imp, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			m.Packages = append(m.Packages, pkg)
		}
	}
	return m, nil
}

func modulePath(gomod string) (string, error) {
	raw, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: not a module root: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

func loadPackage(m *Module, imp *stubImporter, dir string) (*Package, error) {
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return nil, err
	}
	if rel == "." {
		rel = ""
	}
	pkg := &Package{Dir: filepath.ToSlash(rel)}

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var typeFiles []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		af, err := parser.ParseFile(m.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		f := &File{
			Path: filepath.ToSlash(filepath.Join(pkg.Dir, e.Name())),
			Test: strings.HasSuffix(e.Name(), "_test.go"),
			AST:  af,
		}
		f.imports = importMap(af)
		f.allows = parseAllows(m, af)
		if f.Test {
			pkg.TestFiles = append(pkg.TestFiles, f)
		} else {
			pkg.Files = append(pkg.Files, f)
			typeFiles = append(typeFiles, af)
			pkg.Name = af.Name.Name
		}
	}
	if len(pkg.Files) == 0 && len(pkg.TestFiles) == 0 {
		return nil, nil
	}
	if len(typeFiles) > 0 {
		pkg.Info = &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Uses:  make(map[*ast.Ident]types.Object),
			Defs:  make(map[*ast.Ident]types.Object),
		}
		conf := types.Config{
			Importer:         imp,
			FakeImportC:      true,
			IgnoreFuncBodies: false,
			// Standalone checking against stub imports produces a stream
			// of "undefined" errors for cross-package references; the
			// analyzers only consume the types that did resolve.
			Error: func(error) {},
		}
		importPath := m.Path
		if pkg.Dir != "" {
			importPath += "/" + pkg.Dir
		}
		// Check returns an error when any was reported; partial Info is
		// still populated, which is all the analyzers need.
		_, _ = conf.Check(importPath, m.Fset, typeFiles, pkg.Info)
	}
	return pkg, nil
}

// stubImporter satisfies every import with an empty, complete package, so
// standalone type-checking proceeds without resolving real dependencies.
type stubImporter struct {
	pkgs map[string]*types.Package
}

func (s *stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	s.pkgs[path] = p
	return p, nil
}

// importMap maps local package names to import paths for one file.
func importMap(af *ast.File) map[string]string {
	out := make(map[string]string, len(af.Imports))
	for _, spec := range af.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if spec.Name != nil {
			name = spec.Name.Name
			if name == "_" || name == "." {
				continue // blank and dot imports cannot qualify calls
			}
		}
		out[name] = path
	}
	return out
}

// allowPrefix introduces an escape-hatch directive.
const allowPrefix = "//hdlint:allow"

// parseAllows extracts the //hdlint:allow directives of a file.
func parseAllows(m *Module, af *ast.File) map[int][]*allowDirective {
	out := make(map[int][]*allowDirective)
	for _, cg := range af.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, allowPrefix)
			if !ok {
				continue
			}
			line := m.Fset.Position(c.Pos()).Line
			check, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
			out[line] = append(out[line], &allowDirective{
				line:   line,
				check:  check,
				reason: strings.TrimSpace(reason),
			})
		}
	}
	return out
}

// PkgCall reports whether call is a qualified call pkg.fn where the
// qualifier resolves to importPath in this file. Resolution prefers type
// information (so a local variable shadowing the package name is not
// mistaken for it) and falls back to the syntactic import table.
func (p *Package) PkgCall(f *File, call *ast.CallExpr, importPath, fn string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	return p.pkgQualifier(f, sel, importPath)
}

// pkgQualifier reports whether sel.X is the package importPath.
func (p *Package) pkgQualifier(f *File, sel *ast.SelectorExpr, importPath string) bool {
	return p.importOf(f, sel) == importPath
}

// importOf returns the import path of the package sel.X names, or "" when
// sel.X is not a package qualifier.
func (p *Package) importOf(f *File, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if p.Info != nil {
		if obj, ok := p.Info.Uses[id]; ok {
			if pn, isPkg := obj.(*types.PkgName); isPkg {
				return pn.Imported().Path()
			}
			return ""
		}
	}
	return f.imports[id.Name]
}

// diagAt builds a Diagnostic at a source position.
func diagAt(m *Module, pos token.Pos, check, msg string) Diagnostic {
	path, line, col := m.Position(pos)
	return Diagnostic{Path: path, Line: line, Col: col, Check: check, Msg: msg}
}

// Run executes the analyzers over the module, applies the //hdlint:allow
// suppressions, reports escape-hatch hygiene problems, and returns the
// surviving diagnostics sorted by position.
func Run(m *Module, analyzers []*Analyzer, cfg Config) []Diagnostic {
	var raw []Diagnostic
	ran := make(map[string]bool)
	for _, a := range analyzers {
		raw = append(raw, a.Run(m, cfg)...)
		ran[a.Name] = true
	}

	allowsByPath := make(map[string]map[int][]*allowDirective)
	fileOrder := make([]*File, 0)
	for _, pkg := range m.Packages {
		for _, f := range append(append([]*File(nil), pkg.Files...), pkg.TestFiles...) {
			allowsByPath[f.Path] = f.allows
			fileOrder = append(fileOrder, f)
			for _, byLine := range f.allows {
				for _, a := range byLine {
					a.used = false // a module may be Run more than once
				}
			}
		}
	}

	var out []Diagnostic
	for _, d := range raw {
		if suppressed(allowsByPath[d.Path], d) {
			continue
		}
		out = append(out, d)
	}

	// Escape-hatch hygiene: every directive must name a real check, carry
	// a reason, and actually suppress something. Only a check that ran can
	// have left its directive unused.
	checks := knownChecks()
	for _, f := range fileOrder {
		for _, byLine := range f.allows {
			for _, a := range byLine {
				switch {
				case !checks[a.check]:
					out = append(out, Diagnostic{Path: f.Path, Line: a.line, Col: 1, Check: "allow",
						Msg: fmt.Sprintf("hdlint:allow names unknown check %q", a.check)})
				case a.reason == "":
					out = append(out, Diagnostic{Path: f.Path, Line: a.line, Col: 1, Check: "allow",
						Msg: fmt.Sprintf("hdlint:allow %s has no reason; say why the invariant is safe to waive here", a.check)})
				case !a.used && ran[a.check]:
					out = append(out, Diagnostic{Path: f.Path, Line: a.line, Col: 1, Check: "allow",
						Msg: fmt.Sprintf("unused hdlint:allow %s directive (nothing to suppress); delete it", a.check)})
				}
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return out
}

// suppressed consumes a matching allow directive on the diagnostic's line
// or the line directly above. Directives missing a reason do not
// suppress — an unexplained waiver is not a waiver.
func suppressed(allows map[int][]*allowDirective, d Diagnostic) bool {
	for _, line := range [2]int{d.Line, d.Line - 1} {
		for _, a := range allows[line] {
			if a.check == d.Check && a.reason != "" {
				a.used = true
				return true
			}
		}
	}
	return false
}
