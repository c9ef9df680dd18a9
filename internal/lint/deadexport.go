package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// DeadExportAnalyzer keeps internal/ no wider than its callers. Code that
// no pipeline runs still has to be read, tested and kept compiling, so an
// export that only its own tests reach belongs in a _test.go file, and
// one nothing reaches belongs deleted. Flagged under internal/:
//
//   - a package that no non-test file of another package imports;
//   - an exported top-level func, type, var or const that no non-test
//     file references outside its own declaration (a method receiver
//     does not count as a reference to its type);
//   - an exported method of an exported type whose name appears as a
//     selector in no non-test file. The match is by name alone, so any
//     same-named call, field or interface method keeps it: the rule errs
//     toward keeping.
//
// Every non-test file the loader parses counts as a caller: cmd/,
// examples/, the root package and nested modules such as perfbench. An
// export that stays for a caller the rule cannot see (an interface the
// standard library calls, helpers shared by several packages' tests)
// suppresses with a reason that names that caller.
var DeadExportAnalyzer = &Analyzer{
	Name: "deadexport",
	Doc:  "every internal package, exported identifier and exported method has a non-test caller",
	Run:  runDeadExport,
}

func runDeadExport(m *Module, _ Config) []Diagnostic {
	imported := make(map[string]bool)             // import paths, by non-test files of other packages
	qualified := make(map[string]map[string]bool) // import path -> names selected through it
	selectors := make(map[string]bool)            // every selector name in a non-test file
	for _, pkg := range m.Packages {
		self := m.importPath(pkg)
		for _, f := range pkg.Files {
			for _, spec := range f.AST.Imports {
				if path, err := strconv.Unquote(spec.Path.Value); err == nil && path != self {
					imported[path] = true
				}
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				selectors[sel.Sel.Name] = true
				if path := pkg.importOf(f, sel); path != "" {
					if qualified[path] == nil {
						qualified[path] = make(map[string]bool)
					}
					qualified[path][sel.Sel.Name] = true
				}
				return true
			})
		}
	}

	var out []Diagnostic
	for _, pkg := range m.Packages {
		if !dirCovered(pkg.Dir, []string{"internal"}) || len(pkg.Files) == 0 || pkg.Name == "main" {
			continue
		}
		path := m.importPath(pkg)
		if !imported[path] {
			out = append(out, diagAt(m, pkg.Files[0].AST.Name.Pos(), "deadexport",
				fmt.Sprintf("package %s is imported by no non-test file of another package; delete it", path)))
			continue
		}
		local := localUses(pkg)
		for _, f := range pkg.Files {
			for _, decl := range f.AST.Decls {
				for _, d := range exportedDecls(decl) {
					if d.recv == "" && !qualified[path][d.id.Name] && !local[d.id.Name] {
						out = append(out, diagAt(m, d.id.Pos(), "deadexport",
							fmt.Sprintf("exported %s %s has no non-test reference; delete it, or move it into a _test.go file if tests need it", d.kind, d.id.Name)))
					}
					if d.recv != "" && !selectors[d.id.Name] {
						out = append(out, diagAt(m, d.id.Pos(), "deadexport",
							fmt.Sprintf("exported method %s.%s is selected by no non-test file; delete it, or move it into a _test.go file if tests need it", d.recv, d.id.Name)))
					}
				}
			}
		}
	}
	return out
}

// importPath is the import path of a loaded package.
func (m *Module) importPath(pkg *Package) string {
	if pkg.Dir == "" {
		return m.Path
	}
	return m.Path + "/" + pkg.Dir
}

// exportedDecl is one exported declaration deadexport judges.
type exportedDecl struct {
	id   *ast.Ident
	kind string // "func", "method", "type", "var" or "const"
	recv string // receiver type name, for a method
}

// exportedDecls lists the exported top-level identifiers of decl, and the
// method it declares when its receiver type is exported too.
func exportedDecls(decl ast.Decl) []exportedDecl {
	var out []exportedDecl
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			break
		}
		if d.Recv == nil {
			out = append(out, exportedDecl{id: d.Name, kind: "func"})
		} else if recv := recvTypeName(d.Recv); token.IsExported(recv) {
			out = append(out, exportedDecl{id: d.Name, kind: "method", recv: recv})
		}
	case *ast.GenDecl:
		kind := strings.ToLower(d.Tok.String())
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					out = append(out, exportedDecl{id: s.Name, kind: kind})
				}
			case *ast.ValueSpec:
				for _, id := range s.Names {
					if id.IsExported() {
						out = append(out, exportedDecl{id: id, kind: kind})
					}
				}
			}
		}
	}
	return out
}

// recvTypeName is the base type name of a method receiver.
func recvTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// localUses collects the package-level names that the package's own
// non-test files reference outside the declaration that defines them.
// Method receivers are skipped: a type named only by its own methods'
// receivers is never built.
func localUses(pkg *Package) map[string]bool {
	used := make(map[string]bool)
	if pkg.Info == nil {
		return used
	}
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			var own []ast.Node // the declarations a self-reference lands in
			var body []ast.Node
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					own = append(own, d)
				}
				body = append(body, d.Type)
				if d.Body != nil {
					body = append(body, d.Body)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					own = append(own, spec)
					body = append(body, spec)
				}
			}
			for _, n := range body {
				ast.Inspect(n, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := pkg.Info.Uses[id]
					if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
						return true
					}
					if !within(id.Pos(), own, obj) {
						used[id.Name] = true
					}
					return true
				})
			}
		}
	}
	return used
}

// within reports whether pos lies inside the one of own that declares obj.
func within(pos token.Pos, own []ast.Node, obj types.Object) bool {
	for _, n := range own {
		if n.Pos() <= obj.Pos() && obj.Pos() < n.End() {
			return n.Pos() <= pos && pos < n.End()
		}
	}
	return false
}
