package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestModelsShareTwoPhaseCommit keeps the 2PC messages in one place: a
// model's prepare, prepare ack, commit and commit ack are protocol's
// Prepare, Prepared, Commit and Committed. It fails on any Kind method
// under internal/protocols that returns one of their kinds.
func TestModelsShareTwoPhaseCommit(t *testing.T) {
	twoPC := map[string]bool{"prepare": true, "prepare-ack": true, "commit": true, "commit-ack": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal/protocols", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Kind" || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok || len(ret.Results) != 1 {
					return true
				}
				if lit, ok := ret.Results[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if k, _ := strconv.Unquote(lit.Value); twoPC[k] {
						t.Errorf("%s: %s.Kind returns %q: send protocol's 2PC message instead",
							fset.Position(fd.Pos()), recvType(fd.Recv.List[0].Type), k)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
