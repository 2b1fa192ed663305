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
// tests run the deadlines that ship at a faster pace. It opens sockets in
// one file too, the one that holds Listen, serve and connect, which is how
// its tests put wire faults under the service: they hand serve a listener.
// The guards below hold both lines.

// wallClockFuncs are the functions that read or wait on the wall clock, by
// import path.
var wallClockFuncs = map[string][]string{
	"time": {"Now", "Since", "Until", "Sleep", "After", "AfterFunc", "NewTimer", "NewTicker", "Tick"},
	"net":  {"DialTimeout"},
}

// wallClockUses returns "file:line:col: path.Func" for every reference in
// files to one of wallClockFuncs — a call, or the function taken as a value.
func wallClockUses(fset *token.FileSet, files []*ast.File) []string {
	return selectorUses(fset, files, func(path, name string) bool { return slices.Contains(wallClockFuncs[path], name) })
}

// socketUses returns "file:line:col: net.Name" for every reference in files
// to a net.Listen* or net.Dial* function or type (net.Dialer included) —
// except in the one file that declares Listen, serve and connect.
func socketUses(fset *token.FileSet, files []*ast.File) []string {
	var others []*ast.File
	for _, f := range files {
		declared := 0
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && slices.Contains([]string{"Listen", "serve", "connect"}, fd.Name.Name) {
				declared++
			}
		}
		if declared < 3 {
			others = append(others, f)
		}
	}
	out := selectorUses(fset, others, func(path, name string) bool {
		return path == "net" && (strings.HasPrefix(name, "Listen") || strings.HasPrefix(name, "Dial"))
	})
	if len(others) == len(files) {
		out = append(out, "no file declares all of Listen, serve and connect")
	}
	return out
}

// selectorUses returns "file:line:col: path.Name" for every selector in
// files on an imported package for which match holds.
func selectorUses(fset *token.FileSet, files []*ast.File, match func(path, name string) bool) []string {
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
			if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] != "" && match(imports[id.Name], sel.Sel.Name) {
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
		const seam = `package netsrv
import "net"
func Listen(addr string) (net.Listener, error) { return serve(net.Listen("tcp", addr)) }
func serve(ln net.Listener, err error) (net.Listener, error) { return ln, err }
func connect(addr string) (net.Conn, error) { return (&net.Dialer{}).Dial("tcp", addr) }
`
		const redial = `package netsrv
import "net"
func redial(addr string) (net.Conn, error) {
	var d net.Dialer
	return d.Dial("tcp", addr)
}
`
		for _, tc := range []struct {
			name string
			rule func(*token.FileSet, []*ast.File) []string
			srcs []string // x.go, y.go, ...
			want []string
		}{
			{"flags calls and function values", wallClockUses, []string{flagged}, []string{
				"x.go:7:2: time.Sleep", "x.go:8:9: time.Now", "x.go:10:9: net.DialTimeout",
			}},
			{"passes deadlines asked of the clock", wallClockUses, []string{passing}, nil},
			{"flags sockets outside the seam", socketUses, []string{seam, redial}, []string{"y.go:4:8: net.Dialer"}},
			{"passes sockets in the seam", socketUses, []string{seam}, nil},
		} {
			t.Run(tc.name, func(t *testing.T) {
				fset := token.NewFileSet()
				var files []*ast.File
				for i, src := range tc.srcs {
					f, err := parser.ParseFile(fset, string(rune('x'+i))+".go", src, parser.SkipObjectResolution)
					if err != nil {
						t.Fatal(err)
					}
					files = append(files, f)
				}
				if got := tc.rule(fset, files); !slices.Equal(got, tc.want) {
					t.Errorf("findings:\n got: %q\nwant: %q", got, tc.want)
				}
			})
		}
	})

	t.Run("repo", func(t *testing.T) {
		fset, netsrv := loadGoFiles(t, func(g goFile) bool { return g.pkg == "vsensor/internal/netsrv" && !g.test })
		if len(netsrv) == 0 {
			t.Fatal("no product files under internal/netsrv")
		}
		var all, clockless []*ast.File
		for _, g := range netsrv {
			all = append(all, g.f)
			if filepath.Base(g.rel) != "clock.go" {
				clockless = append(clockless, g.f)
			}
		}
		if uses := wallClockUses(fset, clockless); len(uses) > 0 {
			t.Errorf("%d wall-clock uses in internal/netsrv outside clock.go; ask the package's clock instead:\n  %s",
				len(uses), strings.Join(uses, "\n  "))
		}
		if uses := socketUses(fset, all); len(uses) > 0 {
			t.Errorf("%d socket uses in internal/netsrv outside the file of Listen, serve and connect; go through them instead:\n  %s",
				len(uses), strings.Join(uses, "\n  "))
		}
	})
}
