package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestStdImporterMatchesSource imports every standard-library package
// this repository imports through the loader's importer and through
// go/importer's source importer. Every root is type-checked, never
// stubbed; every package the loader's importer type-checked renders as
// the source importer's does (each package-scope object, the methods and
// pointer method set of each named type, and each constant's value) and
// names no stub in that rendering; every stub it handed out is empty and
// complete and imports nothing.
func TestStdImporterMatchesSource(t *testing.T) {
	l, _ := loadModule(t, filepath.Join("..", ".."))
	checked := typeChecked(l.std)
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
				if !checked[imp] {
					t.Errorf("root %s: stubbed", path)
				}
			}
		}
	}
	sort.Strings(roots)
	want := importClosure(t, importer.ForCompiler(token.NewFileSet(), "source", nil), roots)
	diffs, stubs := 0, 0
	for gp := range checked {
		path := gp.Path()
		for _, q := range gp.Imports() {
			if !checked[q] {
				stubs++
				if len(q.Scope().Names()) > 0 || !q.Complete() || len(q.Imports()) > 0 {
					t.Errorf("%s: stub %s is not empty", path, q.Path())
				}
			}
		}
		wp := want[path]
		if wp == nil {
			t.Errorf("%s: type-checked, but not reached by the source importer", path)
			continue
		}
		refs := map[*types.Package]bool{}
		g, w := describePackage(gp, refs), describePackage(wp, nil)
		for q := range refs {
			if !checked[q] {
				t.Errorf("%s: its API names the stub %s", path, q.Path())
			}
		}
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
	t.Logf("%d roots: the source importer's closure has %d packages; %d type-checked (unsafe aside), %d differ, %d stubbed imports",
		len(roots), len(want), len(checked)-1, diffs, stubs)
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<none>"
}

// typeChecked returns the packages imp has type-checked, and unsafe.
func typeChecked(imp *stdImporter) map[*types.Package]bool {
	pkgs := map[*types.Package]bool{types.Unsafe: true}
	for _, p := range imp.pkgs {
		if p.types != nil {
			pkgs[p.types] = true
		}
	}
	return pkgs
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

// TestStubFallback checks the check with every import real that follows
// a failed stubbed check: the name guessed for an unnamed math/rand/v2
// is v2, so a declaration naming rand fails the stubbed check.
func TestStubFallback(t *testing.T) {
	dir := t.TempDir()
	src := "package p\n\nimport \"math/rand/v2\"\n\nvar R *rand.Rand\n"
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	imp := newStdImporter(token.NewFileSet())
	files, errs := parseFiles(imp.fset, dir, bp.GoFiles, parser.SkipObjectResolution, true)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if _, err := imp.typeCheck("p", files, false, imp.stubbing(files)); err == nil || !strings.Contains(err.Error(), "undefined: rand") {
		t.Fatalf("stubbed check: error %v, want undefined: rand", err)
	}
	pkg, err := imp.check(bp)
	if err != nil {
		t.Fatal(err)
	}
	if got := pkg.Scope().Lookup("R").Type().String(); got != "*math/rand/v2.Rand" {
		t.Errorf("R has type %s, want *math/rand/v2.Rand", got)
	}
}

// stubImport is one import spec of FuzzStubImports's files, with a type
// and a value expression that name it (none for a blank import).
type stubImport struct{ spec, typ, val string }

// stubFiles is FuzzStubImports's fixed import set, per file: plain,
// renamed, dot, blank and /v2 imports, two paths imported by both files
// under different names.
var stubFiles = [2][]stubImport{
	{
		{`"strconv"`, "strconv.NumError", "strconv.IntSize"},
		{`sc "strings"`, "sc.Builder", `sc.Repeat("a", 2)`},
		{`. "container/list"`, "List", "New()"},
		{`_ "container/ring"`, "", ""},
		{`"math/rand/v2"`, "*rand.Rand", "rand.Int()"},
	},
	{
		{`conv "strconv"`, "conv.NumError", "conv.Itoa(1)"},
		{`"strings"`, "strings.Reader", "strings.ToUpper"},
		{`r2 "math/rand/v2"`, "r2.PCG", "r2.Uint64()"},
		{`"unicode/utf8"`, "[utf8.UTFMax]byte", "utf8.RuneError"},
	},
}

// stubSites is how many places a declaration can name an import from:
// a type declaration, a var initializer, a function literal in a var
// initializer (its signature and its body), a function signature, a
// function body only, or nowhere.
const stubSites = 6

// stubSource writes the two files of one FuzzStubImports input: each
// byte adds one declaration, in file b>>7, naming import (b&127)%n from
// site (b&127)/n%stubSites, where n is that file's import count.
func stubSource(decls []byte) [2][]byte {
	var src [2]bytes.Buffer
	for f, imports := range stubFiles {
		src[f].WriteString("package p\n\nimport (\n")
		for _, imp := range imports {
			fmt.Fprintf(&src[f], "\t%s\n", imp.spec)
		}
		src[f].WriteString(")\n\n")
	}
	for i, b := range decls {
		f := int(b >> 7)
		n := len(stubFiles[f])
		imp, w := stubFiles[f][int(b&127)%n], &src[f]
		if imp.typ == "" {
			continue
		}
		switch int(b&127) / n % stubSites {
		case 0:
			fmt.Fprintf(w, "type T%d %s\n", i, imp.typ)
		case 1:
			fmt.Fprintf(w, "var V%d = %s\n", i, imp.val)
		case 2:
			fmt.Fprintf(w, "var L%d = func(%s) any { return %s }\n", i, imp.typ, imp.val)
		case 3:
			fmt.Fprintf(w, "func S%d(%s) {}\n", i, imp.typ)
		case 4:
			fmt.Fprintf(w, "func B%d() any { return %s }\n", i, imp.val)
		}
	}
	return [2][]byte{src[0].Bytes(), src[1].Bytes()}
}

// FuzzStubImports checks the stub rule against a check with every import
// real, over generated declarations that name a fixed import set from
// every kind of place: the importer's result (the stubbed check, and the
// full check when that one fails) renders as the full check's does, or
// fails with its error, and a stubbed check that succeeds renders the
// same too. One importer serves every input, so each input checks only
// its own small package.
func FuzzStubImports(f *testing.F) {
	for site := 0; site < stubSites; site++ {
		var decls []byte
		for file, imports := range stubFiles {
			for i := range imports {
				decls = append(decls, byte(file<<7|site*len(imports)+i))
			}
		}
		f.Add(decls)
	}
	f.Add([]byte{})
	f.Add([]byte{4}) // type T0 *rand.Rand, rand being the unnamed math/rand/v2
	imp := newStdImporter(token.NewFileSet())
	f.Fuzz(func(t *testing.T, decls []byte) {
		if len(decls) > 64 {
			return
		}
		var files []*ast.File
		for i, src := range stubSource(decls) {
			blankBodies(src)
			file, err := parser.ParseFile(imp.fset, fmt.Sprintf("p%d.go", i), src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("generated source does not parse: %v\n%s", err, src)
			}
			files = append(files, file)
		}
		full, fullErr := imp.typeCheck("p", files, false, imp)
		got, err := imp.checkFiles("p", files, false)
		if fullErr != nil || err != nil {
			if fmt.Sprint(err) != fmt.Sprint(fullErr) {
				t.Fatalf("error %v, full check %v", err, fullErr)
			}
			return
		}
		want := describePackage(full, nil)
		if g := describePackage(got, nil); !slices.Equal(g, want) {
			t.Fatalf("packages differ:\n got  %q\n want %q", g, want)
		}
		if stubbed, err := imp.typeCheck("p", files, false, imp.stubbing(files)); err == nil {
			if g := describePackage(stubbed, nil); !slices.Equal(g, want) {
				t.Fatalf("stubbed check succeeded with another package:\n got  %q\n want %q", g, want)
			}
		}
	})
}

// BenchmarkStdImport is the std-import rung: a fresh importer per
// iteration imports what perfbench's lint corpus imports from the
// standard library. It reports the packages type-checked and the files
// parsed.
func BenchmarkStdImport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		imp := newStdImporter(token.NewFileSet())
		for _, path := range []string{"errors", "math", "strconv", "sync"} {
			if _, err := imp.Import(path); err != nil {
				b.Fatal(err)
			}
		}
		if i == 0 {
			files := 0
			imp.fset.Iterate(func(*token.File) bool { files++; return true })
			b.ReportMetric(float64(len(typeChecked(imp))-1), "pkgs")
			b.ReportMetric(float64(files), "files")
		}
	}
}

// describePackage renders what an importer of p can see of it, adding
// to refs (when not nil) every package the rendering names.
func describePackage(p *types.Package, refs map[*types.Package]bool) []string {
	qual := func(p *types.Package) string {
		if refs != nil {
			refs[p] = true
		}
		return p.Path()
	}
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
	return fmt.Sprintf("%q errors %q", describePackage(pkg, nil), errs)
}
