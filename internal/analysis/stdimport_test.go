package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestStdImporterMatchesSource imports every standard-library package
// this repository imports through the loader's importer and through
// go/importer's source importer, and compares the two over the whole
// transitive closure: each package-scope object, the methods and
// pointer method set of each named type, and each constant's value.
func TestStdImporterMatchesSource(t *testing.T) {
	l, _ := loadModule(t, filepath.Join("..", ".."))
	seen := map[string]bool{}
	var roots []string
	for _, p := range l.Packages() {
		if len(p.Errs) > 0 {
			t.Fatalf("%s: %v", p.Path, p.Errs[0])
		}
		for _, imp := range p.Types.Imports() {
			path := imp.Path()
			if path != l.ModulePath && !strings.HasPrefix(path, l.ModulePath+"/") && !seen[path] {
				seen[path] = true
				roots = append(roots, path)
			}
		}
	}
	sort.Strings(roots)
	got := importClosure(t, l.std, roots)
	want := importClosure(t, importer.ForCompiler(token.NewFileSet(), "source", nil), roots)
	if len(got) != len(want) {
		t.Errorf("closure of %d roots: %d packages, source importer %d", len(roots), len(got), len(want))
	}
	diffs := 0
	for path, wp := range want {
		gp := got[path]
		if gp == nil {
			t.Errorf("%s: reached by the source importer only", path)
			continue
		}
		g, w := describePackage(gp), describePackage(wp)
		for i := 0; i < len(g) || i < len(w); i++ {
			if i >= len(g) || i >= len(w) || g[i] != w[i] {
				diffs++
				if diffs <= 10 {
					t.Errorf("%s: first difference at line %d:\n got  %q\n want %q", path, i, line(g, i), line(w, i))
				}
				break
			}
		}
	}
	t.Logf("%d roots, %d packages in the closure, %d differ", len(roots), len(want), diffs)
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<none>"
}

// importClosure imports roots and returns every package reached, by path.
func importClosure(t *testing.T, imp types.Importer, roots []string) map[string]*types.Package {
	t.Helper()
	pkgs := map[string]*types.Package{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if pkgs[p.Path()] != nil {
			return
		}
		pkgs[p.Path()] = p
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, path := range roots {
		p, err := imp.Import(path)
		if err != nil {
			t.Fatalf("import %s: %v", path, err)
		}
		walk(p)
	}
	return pkgs
}

// describePackage renders what an importer of p can see of it.
func describePackage(p *types.Package) []string {
	qual := func(p *types.Package) string { return p.Path() }
	lines := []string{"package " + p.Name()}
	scope := p.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		lines = append(lines, types.ObjectString(obj, qual))
		switch obj := obj.(type) {
		case *types.Const:
			lines = append(lines, "  = "+obj.Val().ExactString())
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				lines = append(lines, "  method "+types.ObjectString(named.Method(i), qual))
			}
			mset := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < mset.Len(); i++ {
				lines = append(lines, "  *"+types.SelectionString(mset.At(i), qual))
			}
		}
	}
	return lines
}

// blankCases are declarations that make finding a function's body
// tricky. keep lists text blankBodies must leave, gone text it must
// blank.
var blankCases = []struct {
	name, src  string
	keep, gone []string
}{
	{
		name: "struct result",
		src:  "package p\n\nfunc f() struct{ a int } { return struct{ a int }{1} }\n",
		keep: []string{"func f() struct{ a int } {"},
		gone: []string{"return"},
	},
	{
		name: "interface result",
		src:  "package p\n\nfunc f() interface{ M() } {\n\treturn nil\n}\n",
		keep: []string{"func f() interface{ M() } {"},
		gone: []string{"return nil"},
	},
	{
		name: "chan struct result",
		src:  "package p\n\nfunc f() chan struct{} { return make(chan struct{}) }\n",
		keep: []string{"func f() chan struct{} {"},
		gone: []string{"make"},
	},
	{
		name: "func result",
		src:  "package p\n\nfunc f() func() func() {\n\treturn func() func() { return nil }\n}\n",
		keep: []string{"func f() func() func() {"},
		gone: []string{"return"},
	},
	{
		name: "generic",
		src:  "package p\n\nfunc Max[T interface{ ~int }](a, b T) T {\n\tif a > b {\n\t\treturn a\n\t}\n\treturn b\n}\n",
		keep: []string{"func Max[T interface{ ~int }](a, b T) T {"},
		gone: []string{"if a > b", "return"},
	},
	{
		name: "body-less then body",
		src:  "package p\n\n//go:noescape\nfunc asm(x int) int\n\nfunc after() int { return 42 }\n",
		keep: []string{"func asm(x int) int\n", "func after() int {"},
		gone: []string{"42"},
	},
	{
		name: "braces in literals and comments",
		src: "package p\n\nfunc lits() string {\n\ts := \"}{\\\"}\"\n\tr := '}'\n\t_ = r\n\tx := `}\n{`\n" +
			"\t// }\n\t/* { */\n\treturn s + x\n}\n\nfunc next() int { return 7 }\n",
		keep: []string{"func lits() string {", "func next() int {"},
		gone: []string{"return s + x", "return 7", "`"},
	},
	{
		name: "method",
		src:  "package p\n\ntype T struct{ n int }\n\nfunc (t *T) Get() int { return t.n }\n",
		keep: []string{"type T struct{ n int }", "func (t *T) Get() int {"},
		gone: []string{"return t.n"},
	},
	{
		name: "func literals in var",
		src: "package p\n\nvar fs = [...]func(){f, g}\n\nvar h = func() int { return 3 }\n\n" +
			"func f() { println(\"f\") }\n\nfunc g() {}\n",
		keep: []string{"[...]func(){f, g}", "func() int { return 3 }"},
		gone: []string{"println"},
	},
	{
		name: "semicolons",
		src:  "package p; func a() { return }; func b() int { return 1 }; var c = 2\n",
		keep: []string{"var c = 2"},
		gone: []string{"return"},
	},
	{
		name: "line directive",
		src:  "package p\n\nfunc f() {\n//line other.go:10\n\tprintln()\n}\n\nfunc g() { println() }\n",
		keep: []string{"//line other.go:10\n\tprintln()\n}"},
		gone: []string{"{ println() }"},
	},
}

func TestBlankBodies(t *testing.T) {
	for _, c := range blankCases {
		t.Run(c.name, func(t *testing.T) {
			out := checkBlanked(t, []byte(c.src))
			if _, err := parser.ParseFile(token.NewFileSet(), "p.go", c.src, 0); err != nil {
				t.Fatalf("case does not parse: %v", err)
			}
			for _, s := range c.keep {
				if !strings.Contains(string(out), s) {
					t.Errorf("blanked %q", s)
				}
			}
			for _, s := range c.gone {
				if strings.Contains(string(out), s) {
					t.Errorf("left %q", s)
				}
			}
			if got, want := checkPackage(t, out), checkPackage(t, []byte(c.src)); got != want {
				t.Errorf("types differ:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// FuzzBlankBodies checks blankBodies on arbitrary input: the output
// keeps the input's length and newlines, and when the input parses, the
// output parses to the same top-level declarations.
func FuzzBlankBodies(f *testing.F) {
	for _, c := range blankCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkBlanked(t, []byte(src))
	})
}

// checkBlanked blanks a copy of src and checks the output against it:
// only spaces written, newlines and length kept and, if src parses, the
// same declarations at the same offsets, with the same signatures.
func checkBlanked(t *testing.T, src []byte) []byte {
	t.Helper()
	out := bytes.Clone(src)
	blankBodies(out)
	if len(out) != len(src) {
		t.Fatalf("length %d, want %d", len(out), len(src))
	}
	for i := range src {
		if out[i] != src[i] && (out[i] != ' ' || src[i] == '\n') {
			t.Fatalf("offset %d: %q became %q", i, src[i], out[i])
		}
	}
	fset := token.NewFileSet()
	in, err := parser.ParseFile(fset, "in.go", src, parser.SkipObjectResolution)
	if err != nil {
		return out // only the length and newlines are promised
	}
	got, err := parser.ParseFile(fset, "out.go", out, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("input parses, output does not: %v", err)
	}
	if len(got.Decls) != len(in.Decls) {
		t.Fatalf("%d declarations, want %d", len(got.Decls), len(in.Decls))
	}
	offset := func(p token.Pos) int { return fset.Position(p).Offset }
	for i, d := range in.Decls {
		g := got.Decls[i]
		start, end := offset(d.Pos()), offset(d.End())
		if offset(g.Pos()) != start || offset(g.End()) != end {
			t.Fatalf("declaration %d spans %d-%d, want %d-%d", i, offset(g.Pos()), offset(g.End()), start, end)
		}
		if fd, ok := d.(*ast.FuncDecl); ok {
			gd, ok := g.(*ast.FuncDecl)
			if !ok || (gd.Body == nil) != (fd.Body == nil) {
				t.Fatalf("declaration %d: function or its body lost", i)
			}
			end = offset(fd.Type.End())
		}
		if !bytes.Equal(out[start:end], src[start:end]) {
			t.Fatalf("declaration %d changed:\n got  %q\n want %q", i, out[start:end], src[start:end])
		}
	}
	return out
}

// checkPackage type-checks one file as the importer does and renders
// its package scope and errors.
func checkPackage(t *testing.T, src []byte) string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var errs []string
	conf := types.Config{IgnoreFuncBodies: true, Error: func(err error) { errs = append(errs, err.Error()) }}
	pkg, _ := conf.Check("p", fset, []*ast.File{f}, nil)
	return fmt.Sprintf("%q errors %q", describePackage(pkg), errs)
}
