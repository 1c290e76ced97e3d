package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestModelsShareTwoPhaseCommit keeps the 2PC messages in one place: a
// model's prepare, prepare ack, commit and commit ack are protocol's
// Prepare, Prepared, Commit and Committed. It fails on any Kind method
// under internal/protocols that returns one of their kinds.
func TestModelsShareTwoPhaseCommit(t *testing.T) {
	kindsOutsideProtocol(t, "2PC", "prepare", "prepare-ack", "commit", "commit-ack")
}

// TestModelsShareReadRound keeps the read round in one place: a model's
// read request and reply are protocol's Read and ReadReply. It fails on
// any Kind method under internal/protocols that returns one of their
// kinds.
func TestModelsShareReadRound(t *testing.T) {
	kindsOutsideProtocol(t, "read", "read-req", "read-resp")
}

// TestModelsShareWriteRound keeps the one-round write in one place: a
// model's write request and ack are protocol's Write and WriteAck. It
// fails on any Kind method under internal/protocols that returns one of
// their kinds, or the kinds models once gave their own.
func TestModelsShareWriteRound(t *testing.T) {
	kindsOutsideProtocol(t, "write", "write-req", "write-ack", "write-resp", "fat-write-req", "fat-write-ack")
}

// kindsOutsideProtocol fails t on every Kind method under
// internal/protocols that returns one of kinds, the kinds of protocol's
// messages for what.
func kindsOutsideProtocol(t *testing.T, what string, kinds ...string) {
	t.Helper()
	walkModels(t, func(fset *token.FileSet, f *ast.File) {
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
					if k, _ := strconv.Unquote(lit.Value); slices.Contains(kinds, k) {
						t.Errorf("%s: %s.Kind returns %q: send protocol's %s message instead",
							fset.Position(fd.Pos()), recvType(fd.Recv.List[0].Type), k, what)
					}
				}
				return true
			})
		}
	})
}

// TestModelsKeepNoReplyMap keeps the read fold in one place: a client
// gathers its ROT's replies in a protocol.Gather, by read-set position.
// It fails on any struct field under internal/protocols whose type is a
// map to protocol.Val.
func TestModelsKeepNoReplyMap(t *testing.T) {
	walkModels(t, func(fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if m, ok := field.Type.(*ast.MapType); ok {
					if ix, ok := m.Value.(*ast.IndexExpr); ok && types.ExprString(ix.X) == "protocol.Val" {
						t.Errorf("%s: a field maps to protocol.Val: gather the replies in a protocol.Gather",
							fset.Position(field.Pos()))
					}
				}
			}
			return true
		})
	})
}

// walkModels calls visit on every Go file under internal/protocols.
func walkModels(t *testing.T, visit func(*token.FileSet, *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal/protocols", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
