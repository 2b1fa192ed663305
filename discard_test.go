package vsensor_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
)

// A value thrown away with `_ =` is an error or a result someone decided
// not to need. The guard below makes each such decision say why, in a
// `//vs:discard <reason>` comment on its line or ending on the line above.

// unexplainedDiscards returns "file:line" for every assignment in files
// whose left side is all blank identifiers and that no //vs:discard reason
// explains.
func unexplainedDiscards(fset *token.FileSet, files []*ast.File) []string {
	var out []string
	for _, f := range files {
		explained := map[int]bool{} // lines a reason covers
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if r, ok := strings.CutPrefix(c.Text, "//vs:discard"); ok && strings.TrimSpace(r) != "" {
					start, end := fset.Position(cg.Pos()).Line, fset.Position(cg.End()).Line
					explained[start], explained[end+1] = true, true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN || !slices.ContainsFunc(as.Lhs, isBlank) || slices.ContainsFunc(as.Lhs, func(e ast.Expr) bool { return !isBlank(e) }) {
				return true
			}
			if pos := fset.Position(as.Pos()); !explained[pos.Line] {
				out = append(out, fmt.Sprintf("%s:%d", pos.Filename, pos.Line))
			}
			return true
		})
	}
	return out
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func TestEveryDiscardSaysWhy(t *testing.T) {
	t.Run("fixtures", func(t *testing.T) {
		const src = `package p
func f(c interface{ Close() error }, m map[string]int) {
	_ = c.Close()
	_, _ = m["k"]
	x, _ := m["k"]
	_ = x
	_ = c.Close() //vs:discard the close of a reader reports nothing a read has not
	//vs:discard a second close
	// is harmless
	_ = c.Close()
	//vs:discard
	_ = c.Close()
}
`
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := unexplainedDiscards(fset, []*ast.File{f}), []string{"x.go:3", "x.go:4", "x.go:6", "x.go:12"}; !slices.Equal(got, want) {
			t.Errorf("unexplained discards:\n got: %q\nwant: %q", got, want)
		}
	})

	t.Run("repo", func(t *testing.T) {
		fset, product := loadGoFiles(t, func(g goFile) bool { return !g.test && !strings.HasPrefix(g.rel, "benchmark/") })
		var files []*ast.File
		for _, g := range product {
			files = append(files, g.f)
		}
		if found := unexplainedDiscards(fset, files); len(found) > 0 {
			t.Errorf("%d discards outside benchmark/ say not why; return the value, use it, or add //vs:discard <reason>:\n  %s",
				len(found), strings.Join(found, "\n  "))
		}
	})
}
