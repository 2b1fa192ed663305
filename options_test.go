package vsensor_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// A setting that no product caller ever changes is a configuration the
// benchmark never measures while tests still have to cover it. The guard
// below holds the line: every exported field of an exported
// *Config/*Options/*Policy/*Plan struct must be written by a non-test file
// of another package, or say why not with a `//vs:option <reason>` comment.

// optionModule is the module path the loader derives import paths from.
const optionModule = "vsensor"

// optionStruct matches the struct names the rule covers.
var optionStruct = regexp.MustCompile(`^\w*(Config|Options|Policy|Plan)$`)

// optionExempt are the directories that neither declare options nor count
// as their setters: test support that only test code drives.
var optionExempt = []string{"internal/feed"}

// goFile is one parsed Go file of the module.
type goFile struct {
	pkg  string // its package's import path
	rel  string // its path from the module root, slash-separated
	test bool
	f    *ast.File
}

// moduleFiles parses every Go file of the module once, with comments,
// skipping hidden directories and testdata: the one walk that the tree's
// source rules (options, netsrv's clock and sockets, discards) share.
var moduleFiles = sync.OnceValues(func() (parsedModule, error) {
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := optionModule
		if d := filepath.ToSlash(filepath.Dir(rel)); d != "." {
			pkg += "/" + d
		}
		files = append(files, goFile{pkg: pkg, rel: rel, test: strings.HasSuffix(path, "_test.go"), f: f})
		return nil
	})
	return parsedModule{fset, files}, err
})

type parsedModule struct {
	fset  *token.FileSet
	files []goFile
}

// loadGoFiles is the module's files that keep admits.
func loadGoFiles(t *testing.T, keep func(goFile) bool) (*token.FileSet, []goFile) {
	t.Helper()
	m, err := moduleFiles()
	if err != nil {
		t.Fatal(err)
	}
	return m.fset, slices.DeleteFunc(slices.Clone(m.files), func(g goFile) bool { return !keep(g) })
}

// typeName is a named type by its package's import path.
type typeName struct{ pkg, name string }

// unsetOptions returns "pkg.Type.Field" for every covered field that no
// non-test file outside the declaring package writes and that carries no
// //vs:option reason, sorted.
//
// The loader has no type information, so a write is recognized by syntax:
// a key of a composite literal whose type is named (directly, behind & or *,
// or as the element type of a slice or map literal around an elided one),
// or the selector on the left of an assignment or ++/--, which counts for
// every covered field of that name declared in another package.
func unsetOptions(files []goFile) []string {
	type field struct {
		t    typeName
		name string
	}
	var declared []field
	written := map[field]bool{}
	writtenName := map[string][]string{} // field name → packages writing it by selector
	for _, of := range files {
		if of.test {
			continue
		}
		for _, d := range of.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !optionStruct.MatchString(ts.Name.Name) {
					continue
				}
				for _, fl := range st.Fields.List {
					if optionReason(fl.Doc) || optionReason(fl.Comment) {
						continue
					}
					for _, n := range fl.Names {
						if n.IsExported() {
							declared = append(declared, field{typeName{of.pkg, ts.Name.Name}, n.Name})
						}
					}
				}
			}
		}

		imports := map[string]string{}
		for _, im := range of.f.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = path
		}
		named := func(e ast.Expr) (typeName, bool) {
			for {
				switch x := e.(type) {
				case *ast.StarExpr:
					e = x.X
					continue
				case *ast.Ident:
					return typeName{of.pkg, x.Name}, true
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
						return typeName{imports[id.Name], x.Sel.Name}, true
					}
				}
				return typeName{}, false
			}
		}
		elided := map[*ast.CompositeLit]typeName{}
		ast.Inspect(of.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				t, ok := elided[n]
				if n.Type != nil {
					t, ok = named(n.Type)
				}
				var elem typeName
				var hasElem bool
				switch ct := n.Type.(type) {
				case *ast.ArrayType:
					elem, hasElem = named(ct.Elt)
				case *ast.MapType:
					elem, hasElem = named(ct.Value)
				}
				for _, e := range n.Elts {
					if kv, isKV := e.(*ast.KeyValueExpr); isKV {
						if id, isID := kv.Key.(*ast.Ident); isID && ok && t.pkg != of.pkg {
							written[field{t, id.Name}] = true
						}
						e = kv.Value
					}
					if u, isU := e.(*ast.UnaryExpr); isU {
						e = u.X
					}
					if inner, isLit := e.(*ast.CompositeLit); isLit && inner.Type == nil && hasElem {
						elided[inner] = elem
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if sel, isSel := l.(*ast.SelectorExpr); isSel {
						writtenName[sel.Sel.Name] = append(writtenName[sel.Sel.Name], of.pkg)
					}
				}
			case *ast.IncDecStmt:
				if sel, isSel := n.X.(*ast.SelectorExpr); isSel {
					writtenName[sel.Sel.Name] = append(writtenName[sel.Sel.Name], of.pkg)
				}
			}
			return true
		})
	}

	var out []string
	for _, d := range declared {
		if written[d] || slices.ContainsFunc(writtenName[d.name], func(p string) bool { return p != d.t.pkg }) {
			continue
		}
		out = append(out, d.t.pkg+"."+d.t.name+"."+d.name)
	}
	slices.Sort(out)
	return out
}

// optionReason reports whether a comment group holds `//vs:option <reason>`
// with a non-empty reason.
func optionReason(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if r, ok := strings.CutPrefix(c.Text, "//vs:option"); ok && strings.TrimSpace(r) != "" {
			return true
		}
	}
	return false
}

func TestEveryOptionHasAProductSetter(t *testing.T) {
	t.Run("fixtures", func(t *testing.T) {
		const decl = `package link
type Config struct {
	Batch int
	Retries int // only a test sets it
	Lease int
	// Cap is tuned by tests alone.
	//vs:option tests shrink it to reach eviction quickly
	Cap int
	Window int
	Slots int
	hidden int
}
type Stats struct{ Unset int }
`
		const test = `package link
func cfg() Config { return Config{Retries: 2} }
`
		const caller = `package main
import (
	"fmt"
	l "example/link"
)
func main() {
	c := l.Config{Batch: 8}
	c.Lease = 4
	all := []l.Config{{Window: 2}}
	m := map[string]*l.Config{"a": {Slots: 1}}
	fmt.Println(c, all, m)
}
`
		parse := func(pkg, src string, test bool) goFile {
			f, err := parser.ParseFile(token.NewFileSet(), "x.go", src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			return goFile{pkg: pkg, test: test, f: f}
		}
		for _, tc := range []struct {
			name  string
			files []goFile
			want  []string
		}{
			{
				name: "flags fields only a test sets",
				files: []goFile{
					parse("example/link", decl, false),
					parse("example/link", test, true),
				},
				want: []string{
					"example/link.Config.Batch", "example/link.Config.Lease",
					"example/link.Config.Retries", "example/link.Config.Slots",
					"example/link.Config.Window",
				},
			},
			{
				name: "passes fields another package's product code sets",
				files: []goFile{
					parse("example/link", decl, false),
					parse("example/link", test, true),
					parse("example/cmd", caller, false),
				},
				want: []string{"example/link.Config.Retries"},
			},
		} {
			t.Run(tc.name, func(t *testing.T) {
				if got := unsetOptions(tc.files); !slices.Equal(got, tc.want) {
					t.Errorf("unset options:\n got: %q\nwant: %q", got, tc.want)
				}
			})
		}
	})

	t.Run("repo", func(t *testing.T) {
		_, files := loadGoFiles(t, func(g goFile) bool {
			return !slices.ContainsFunc(optionExempt, func(dir string) bool { return strings.HasPrefix(g.rel, dir+"/") })
		})
		if unset := unsetOptions(files); len(unset) > 0 {
			t.Errorf("%d option fields have no product setter outside their package; make each a constant, "+
				"give it a caller, or annotate it //vs:option <reason>:\n  %s", len(unset), strings.Join(unset, "\n  "))
		}
	})
}
