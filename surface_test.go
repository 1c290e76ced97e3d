package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// surfaceAllowed names the exported functions, methods and types in
// internal/ that no program file uses, each with why it stays: test
// drivers and observers that tests in other packages depend on.
var surfaceAllowed = map[string]string{
	"ptest.RunLoad":                   "the concurrent-load conformance sweep every model test runs",
	"ptest.RunFaults":                 "the crash and partition conformance sweep every model test runs",
	"ptest.RunReconfig":               "the replace and restore conformance sweep every model test runs",
	"history.GenViolating":            "violating-history generator the checker, streaming and benchmark tests share",
	"sim.Kernel.Quiescent":            "observer the kernel, runner, fault and adversary tests assert on",
	"sim.Kernel.DropInTransit":        "message loss the kernel and naivefast tests inject",
	"sim.Kernel.EarliestArrival":      "observer the arrival-index tests hold to a full scan",
	"sim.Kernel.LinkCut":              "observer the partition tests assert on",
	"sim.ConstantLatency":             "fixed-latency model the kernel, runner and open-loop tests build on",
	"protocol.Placement.ReplicasOf":   "observer the placement tests assert on",
	"protocol.Placement.IsReplicated": "observer the placement and partial-replication tests assert on",
	"protocol.Claims.FastROT":         "Definition 4 predicate the claims tests assert on",
	"spec.Measurement.FastROT":        "Definition 4 predicate the spec, fatcops and eigerps tests assert on",
	"spec.Profile.FastROT":            "Definition 4 predicate the spec, core and Table 1 benchmark tests assert on",
}

// TestExportedSurfaceHasCallers keeps internal/ and the root facade from
// carrying API that only their own tests reach. It parses every non-test
// Go file of the module, whatever its build tags (so the benchtrace
// tracer under cmd/perf counts as a caller), and fails on an exported
// function, method or type declared in internal/ whose name appears
// nowhere outside its own declaration, unless surfaceAllowed names it.
// The check goes by name, so two declarations sharing a name keep each
// other alive only when some file also uses that name. The facade's
// function names repeat those of the packages it wraps, so an exported
// function of the root package counts only repro.<Name> selectors and
// unqualified uses in the root package's own files.
func TestExportedSurfaceHasCallers(t *testing.T) {
	type decl struct {
		name     string // package-qualified, receiver type included
		ident    string
		pos, end token.Pos
		root     bool // a function of the root package
	}
	fset := token.NewFileSet()
	var decls []decl
	var files []*ast.File
	rootFiles := map[*ast.File]bool{}
	declared := map[token.Pos]bool{} // name idents of every func and type declaration
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		root := filepath.Dir(path) == "."
		rootFiles[f] = root
		pkg := f.Name.Name
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				declared[dd.Name.Pos()] = true
				if root && dd.Recv == nil && dd.Name.IsExported() {
					decls = append(decls, decl{pkg + "." + dd.Name.Name, dd.Name.Name, dd.Pos(), dd.End(), true})
				}
				if !internal || !dd.Name.IsExported() {
					continue
				}
				name := pkg + "." + dd.Name.Name
				if dd.Recv != nil {
					name = pkg + "." + recvType(dd.Recv.List[0].Type) + "." + dd.Name.Name
				}
				decls = append(decls, decl{name, dd.Name.Name, dd.Pos(), dd.End(), false})
			case *ast.GenDecl:
				for _, s := range dd.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					declared[ts.Name.Pos()] = true
					if internal && ts.Name.IsExported() {
						decls = append(decls, decl{pkg + "." + ts.Name.Name, ts.Name.Name, ts.Pos(), ts.End(), false})
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	uses := map[string][]token.Pos{}
	rootUses := map[string][]token.Pos{} // repro.<Name> selectors, unqualified names in the root package
	for _, f := range files {
		selected := map[*ast.Ident]bool{} // the Sel of every selector
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "repro" {
					rootUses[n.Sel.Name] = append(rootUses[n.Sel.Name], n.Sel.Pos())
				}
			case *ast.Ident:
				if declared[n.Pos()] {
					break
				}
				uses[n.Name] = append(uses[n.Name], n.Pos())
				if rootFiles[f] && !selected[n] {
					rootUses[n.Name] = append(rootUses[n.Name], n.Pos())
				}
			}
			return true
		})
	}
	var unused []string
	for _, d := range decls {
		used := false
		byName := uses
		if d.root {
			byName = rootUses
		}
		for _, p := range byName[d.ident] {
			if p < d.pos || p >= d.end {
				used = true
				break
			}
		}
		if !used {
			unused = append(unused, d.name)
		}
	}
	slices.Sort(unused)
	for _, name := range unused {
		if _, ok := surfaceAllowed[name]; !ok {
			t.Errorf("%s is exported but no program file uses it: delete it (with its self-tests) or use it", name)
		}
	}
	for name := range surfaceAllowed {
		if !slices.Contains(unused, name) {
			t.Errorf("%s is allowlisted but is used or gone: drop it from surfaceAllowed", name)
		}
	}
}

// recvType is the type name of a method receiver: T, *T or T[P].
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
