package vsensor_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// netsrv reads the wall clock in one file, its clock's; every deadline,
// backoff sleep and age check elsewhere asks that clock, which is how its
// tests run the deadlines that ship at a faster pace. The guard below holds
// the line: no other product file of the package names a wall-clock
// function.

// wallClockFuncs are the functions that read or wait on the wall clock, by
// import path.
var wallClockFuncs = map[string][]string{
	"time": {"Now", "Since", "Until", "Sleep", "After", "AfterFunc", "NewTimer", "NewTicker", "Tick"},
	"net":  {"DialTimeout"},
}

// wallClockUses returns "file:line:col: path.Func" for every reference in
// files to one of wallClockFuncs — a call, or the function taken as a value.
func wallClockUses(fset *token.FileSet, files []*ast.File) []string {
	var out []string
	for _, f := range files {
		imports := map[string]string{} // local name → import path
		for _, im := range f.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && slices.Contains(wallClockFuncs[imports[id.Name]], sel.Sel.Name) {
				out = append(out, fmt.Sprintf("%s: %s.%s", fset.Position(sel.Pos()), imports[id.Name], sel.Sel.Name))
			}
			return true
		})
	}
	return out
}

func TestNetsrvReadsTimeThroughItsClock(t *testing.T) {
	t.Run("fixtures", func(t *testing.T) {
		const flagged = `package netsrv
import (
	"net"
	tm "time"
)
func connect(addr string) (net.Conn, error) {
	tm.Sleep(tm.Millisecond)
	now := tm.Now
	_ = now
	return net.DialTimeout("tcp", addr, tm.Second)
}
`
		const passing = `package netsrv
import (
	"net"
	"time"
)
type clock interface{ deadline(time.Duration) time.Time }
func connect(addr string, clk clock) (net.Conn, error) {
	var zero time.Time
	_ = zero
	return (&net.Dialer{Deadline: clk.deadline(5 * time.Second)}).Dial("tcp", addr)
}
`
		for _, tc := range []struct {
			name string
			src  string
			want []string
		}{
			{"flags calls and function values", flagged, []string{
				"x.go:7:2: time.Sleep", "x.go:8:9: time.Now", "x.go:10:9: net.DialTimeout",
			}},
			{"passes deadlines asked of the clock", passing, nil},
		} {
			t.Run(tc.name, func(t *testing.T) {
				fset := token.NewFileSet()
				f, err := parser.ParseFile(fset, "x.go", tc.src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				if got := wallClockUses(fset, []*ast.File{f}); !slices.Equal(got, tc.want) {
					t.Errorf("wall-clock uses:\n got: %q\nwant: %q", got, tc.want)
				}
			})
		}
	})

	t.Run("repo", func(t *testing.T) {
		paths, err := filepath.Glob("internal/netsrv/*.go")
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		var files []*ast.File
		for _, p := range paths {
			if strings.HasSuffix(p, "_test.go") || filepath.Base(p) == "clock.go" {
				continue
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			t.Fatal("no product files under internal/netsrv")
		}
		if uses := wallClockUses(fset, files); len(uses) > 0 {
			t.Errorf("%d wall-clock uses in internal/netsrv outside clock.go; ask the package's clock instead:\n  %s",
				len(uses), strings.Join(uses, "\n  "))
		}
	})
}
