package analysis

import (
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module in a temp dir. Files maps
// relative paths to contents; a go.mod is written from modpath.
func writeModule(t *testing.T, modpath string, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module " + modpath + "\n\ngo 1.22\n"
	for rel, content := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func loadModule(t *testing.T, dir string, patterns ...string) (*Loader, []*Package) {
	t.Helper()
	l, err := NewLoader(dir, "")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return l, pkgs
}

func TestModulePathFromGoMod(t *testing.T) {
	dir := writeModule(t, "example.org/tiny", map[string]string{
		"a.go": "package tiny\n",
	})
	l, pkgs := loadModule(t, dir)
	if l.ModulePath != "example.org/tiny" {
		t.Fatalf("ModulePath = %q, want example.org/tiny", l.ModulePath)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "example.org/tiny" {
		t.Fatalf("loaded %v, want the root package", pkgs)
	}
}

func TestMalformedSource(t *testing.T) {
	dir := writeModule(t, "m", map[string]string{
		"bad.go": "package m\n\nfunc broken( {\n", // parse error
	})
	_, pkgs := loadModule(t, dir)
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	if len(pkgs[0].Errs) == 0 {
		t.Fatal("parse error not recorded in pkg.Errs")
	}
	// A broken package must be skipped by Run, not analyzed.
	if diags := Run(All(), pkgs, NewDirectives()); len(diags) != 0 {
		t.Fatalf("Run analyzed a broken package: %v", diags)
	}
}

func TestTypeCheckError(t *testing.T) {
	dir := writeModule(t, "m", map[string]string{
		"a.go": "package m\n\nfunc f() int { return \"not an int\" }\n",
	})
	_, pkgs := loadModule(t, dir)
	if len(pkgs) != 1 || len(pkgs[0].Errs) == 0 {
		t.Fatal("type-check error not recorded in pkg.Errs")
	}
	if diags := Run(All(), pkgs, NewDirectives()); len(diags) != 0 {
		t.Fatalf("Run analyzed a package with type errors: %v", diags)
	}
}

func TestMultiFilePackage(t *testing.T) {
	// g (in b.go) calls f (in a.go): type checking must see both files
	// as one package, and directives from each file must be indexed.
	dir := writeModule(t, "m", map[string]string{
		"a.go": "package m\n\n//iprune:hotpath\nfunc f(n int) int { return n }\n",
		"b.go": "package m\n\nfunc g() int { return f(1) }\n",
	})
	l, pkgs := loadModule(t, dir)
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if len(pkg.Errs) > 0 {
		t.Fatalf("multi-file package failed to type-check: %v", pkg.Errs)
	}
	if len(pkg.Files) != 2 {
		t.Fatalf("parsed %d files, want 2", len(pkg.Files))
	}
	obj := pkg.Types.Scope().Lookup("f")
	if obj == nil {
		t.Fatal("f not in package scope")
	}
	if !l.Directives().ObjHas(obj, "hotpath") {
		t.Fatal("hotpath directive from a.go not attached to f")
	}
}

func TestCrossPackageImport(t *testing.T) {
	// The loader must resolve module-internal imports from source.
	dir := writeModule(t, "m", map[string]string{
		"lib/lib.go": "package lib\n\nfunc Answer() int { return 42 }\n",
		"main.go":    "package main\n\nimport \"m/lib\"\n\nfunc main() { _ = lib.Answer() }\n",
	})
	_, pkgs := loadModule(t, dir)
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	for _, p := range pkgs {
		if len(p.Errs) > 0 {
			t.Fatalf("%s has errors: %v", p.Path, p.Errs)
		}
	}
}

func TestDirectiveReasonRequired(t *testing.T) {
	dir := writeModule(t, "m", map[string]string{
		"a.go": "package m\n\nfunc f(a float64) float64 {\n" +
			"\treturn a * 2 //iprune:allow-float\n}\n",
	})
	l, _ := loadModule(t, dir)
	probs := l.Directives().Problems
	if len(probs) != 1 {
		t.Fatalf("got %d directive problems, want 1: %v", len(probs), probs)
	}
	if want := "//iprune:allow-float requires a reason"; probs[0].Message != want {
		t.Fatalf("problem = %q, want %q", probs[0].Message, want)
	}
	// A reasonless allow-* must NOT suppress: the escape hatch only
	// opens with a justification.
	pos := probs[0].Pos
	if l.Directives().LineHas(pos.Filename, pos.Line, "allow-float") {
		t.Fatal("reasonless allow-float was indexed as a live directive")
	}
}

func TestDirectiveWithReason(t *testing.T) {
	dir := writeModule(t, "m", map[string]string{
		"a.go": "package m\n\nfunc f(a float64) float64 {\n" +
			"\treturn a * 2 //iprune:allow-float calibration-time only\n}\n",
	})
	l, _ := loadModule(t, dir)
	if probs := l.Directives().Problems; len(probs) != 0 {
		t.Fatalf("well-formed directive reported as problem: %v", probs)
	}
	fname := filepath.Join(dir, "a.go")
	if !l.Directives().LineHas(fname, 4, "allow-float") {
		t.Fatal("allow-float with reason not indexed on its line")
	}
}

func TestUnknownDirective(t *testing.T) {
	dir := writeModule(t, "m", map[string]string{
		"a.go": "package m\n\n//iprune:allow-everything because I said so\nfunc f() {}\n",
	})
	l, _ := loadModule(t, dir)
	probs := l.Directives().Problems
	if len(probs) != 1 {
		t.Fatalf("got %d directive problems, want 1: %v", len(probs), probs)
	}
	if !strings.Contains(probs[0].Message, "unknown directive //iprune:allow-everything") {
		t.Fatalf("problem = %q, want unknown-directive message", probs[0].Message)
	}
}

func TestLoadPattern(t *testing.T) {
	dir := writeModule(t, "m", map[string]string{
		"lib/lib.go":    "package lib\n",
		"other/o.go":    "package other\n",
		"lib/lib2.go":   "package lib\n\nconst Two = 2\n",
		"testdata/t.go": "package ignored\n",
	})
	_, pkgs := loadModule(t, dir, "./lib")
	if len(pkgs) != 1 || pkgs[0].Path != "m/lib" {
		t.Fatalf("Load(./lib) = %v, want just m/lib", pkgs)
	}
	_, all := loadModule(t, dir, "./...")
	var paths []string
	for _, p := range all {
		paths = append(paths, p.Path)
	}
	if got := strings.Join(paths, " "); got != "m/lib m/other" {
		t.Fatalf("Load(./...) = %q, want %q (testdata skipped)", got, "m/lib m/other")
	}
}

func TestMissingGoMod(t *testing.T) {
	if _, err := NewLoader(t.TempDir(), ""); err == nil {
		t.Fatal("NewLoader without go.mod and module path should fail")
	}
}

func TestVendorSkipped(t *testing.T) {
	// ./... must not descend into vendor trees: vendored packages carry
	// their own import paths and directives that are not this module's.
	dir := writeModule(t, "m", map[string]string{
		"lib/lib.go":             "package lib\n",
		"vendor/dep/dep.go":      "package dep\n",
		"lib/vendor/dep2/dep.go": "package dep2\n",
	})
	_, pkgs := loadModule(t, dir, "./...")
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if got := strings.Join(paths, " "); got != "m/lib" {
		t.Fatalf("Load(./...) = %q, want %q (vendor trees skipped)", got, "m/lib")
	}
}

func TestUnderscoreAndDotFilesSkipped(t *testing.T) {
	// The go tool ignores _*.go and .*.go entirely; loading them would
	// inject declarations (or syntax errors) the build never sees.
	dir := writeModule(t, "m", map[string]string{
		"a.go":      "package m\n\nconst A = 1\n",
		"_draft.go": "package m\n\nconst A = 2 // redeclaration if loaded\n",
		".gen.go":   "package m\n\nthis is not Go\n",
	})
	_, pkgs := loadModule(t, dir)
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	if len(pkgs[0].Errs) > 0 {
		t.Fatalf("underscore/dot files leaked into the build: %v", pkgs[0].Errs)
	}
	if len(pkgs[0].Files) != 1 {
		t.Fatalf("parsed %d files, want 1", len(pkgs[0].Files))
	}
}

func TestBuildTagExcludedFile(t *testing.T) {
	// A file constrained to a platform this host is not must be excluded
	// exactly as the compiler would exclude it: otherwise its
	// declarations conflict with the host variant's.
	dir := writeModule(t, "m", map[string]string{
		"a.go": "package m\n\nfunc impl() int { return 1 }\n",
		"b.go": "//go:build plan9 && mips64\n\npackage m\n\nfunc impl() int { return 2 }\n",
	})
	_, pkgs := loadModule(t, dir)
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	if len(pkgs[0].Errs) > 0 {
		t.Fatalf("tag-excluded file leaked into the build: %v", pkgs[0].Errs)
	}
	if len(pkgs[0].Files) != 1 {
		t.Fatalf("parsed %d files, want 1 (b.go excluded by //go:build)", len(pkgs[0].Files))
	}
}

func TestFilenameSuffixExcludedFile(t *testing.T) {
	// The _GOOS/_GOARCH filename convention is a build constraint too.
	dir := writeModule(t, "m", map[string]string{
		"a.go":             "package m\n\nfunc impl() int { return 1 }\n",
		"impl_plan9.go":    "package m\n\nfunc impl() int { return 2 }\n",
		"impl_windows.go":  "package m\n\nfunc impl() int { return 3 }\n",
		"impl_mips64le.go": "package m\n\nfunc impl() int { return 4 }\n",
	})
	_, pkgs := loadModule(t, dir)
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	if len(pkgs[0].Errs) > 0 {
		t.Fatalf("platform-suffixed files leaked into the build: %v", pkgs[0].Errs)
	}
	if len(pkgs[0].Files) != 1 {
		t.Fatalf("parsed %d files, want 1 (platform variants excluded)", len(pkgs[0].Files))
	}
}

func TestSyntaxErrorGraceful(t *testing.T) {
	// One broken package must not abort the load: the sibling package
	// still loads clean and the broken one carries its diagnostics.
	dir := writeModule(t, "m", map[string]string{
		"good/good.go": "package good\n\nconst OK = 1\n",
		"bad/bad.go":   "package bad\n\nfunc oops( {\n",
	})
	_, pkgs := loadModule(t, dir, "./...")
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	if p := byPath["m/bad"]; p == nil || len(p.Errs) == 0 {
		t.Fatal("syntax error not recorded on m/bad")
	}
	if p := byPath["m/good"]; p == nil || len(p.Errs) != 0 {
		t.Fatal("clean sibling package affected by m/bad's syntax error")
	}
}

func TestFileSelectionMatchesGoTool(t *testing.T) {
	// A file needing a newer Go release than this toolchain's and a
	// //go:build ignore generator are outside the build: the go tool
	// neither compiles nor parses them, so neither may the loader.
	tags := build.Default.ReleaseTags
	var minor int
	if _, err := fmt.Sscanf(tags[len(tags)-1], "go1.%d", &minor); err != nil {
		t.Fatalf("release tags %v: %v", tags, err)
	}
	future := fmt.Sprintf("go1.%d", minor+1)
	dir := writeModule(t, "m", map[string]string{
		"a.go":      "package m\n\nfunc A() int { return 1 }\n",
		"future.go": "//go:build " + future + "\n\npackage m\n\nfunc A() int { return 2 }\n",
		"gen.go":    "//go:build ignore\n\npackage main\n\nfunc B( {\n",
	})
	_, pkgs := loadModule(t, dir)
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	if len(pkgs[0].Errs) > 0 {
		t.Fatalf("files outside the build leaked into it: %v", pkgs[0].Errs)
	}
	if len(pkgs[0].Files) != 1 {
		t.Fatalf("parsed %d files, want 1 (%s and ignore excluded)", len(pkgs[0].Files), future)
	}
}

func TestMalformedConstraintRecorded(t *testing.T) {
	// A //go:build line go/build cannot parse fails the go tool's build,
	// in a test file too; the loader records it instead of dropping or
	// including the file. Only standard-library packages are resolved
	// without reading their test files.
	for _, name := range []string{"b.go", "b_test.go"} {
		dir := writeModule(t, "m", map[string]string{
			"a.go": "package m\n\nconst A = 1\n",
			name:   "//go:build linux &&\n\npackage m\n\nconst B = 2\n",
		})
		_, pkgs := loadModule(t, dir)
		if len(pkgs) != 1 || len(pkgs[0].Errs) == 0 {
			t.Fatalf("%s: malformed build constraint not recorded in pkg.Errs", name)
		}
	}
}

// TestCacheUncachedEquivalence pins the RunCached shim: it returns
// exactly Run's diagnostics and counts every analyzed package as a miss.
func TestCacheUncachedEquivalence(t *testing.T) {
	dir := writeModule(t, "iprune", map[string]string{
		"internal/fixed/helper.go": "package fixed\n\nfunc Clamp(x int16) int16 { return x }\n",
		"internal/tile/kernel.go": "package tile\n\nimport \"iprune/internal/fixed\"\n\n" +
			"func Scale(x float64) float64 { return x * 1.5 }\n\n" +
			"func Use(x int16) int16 { return fixed.Clamp(x) }\n",
		"internal/nn/other.go": "package nn\n\n//iprune:allow-budget test kernel, cost not under test\n//iprune:hotpath\nfunc Hot(xs []int) []int {\n" +
			"\tfor range xs {\n\t\txs = append(xs, 1)\n\t}\n\treturn xs\n}\n",
	})
	l, pkgs := loadModule(t, dir, "./...")
	plain := Run(All(), pkgs, l.Directives())
	if len(plain) == 0 {
		t.Fatal("Run found nothing; the module should have findings")
	}
	c := &Cache{Dir: filepath.Join(dir, ".cache"), Root: dir}
	if got := RunCached(All(), pkgs, l.Directives(), c, l.Packages()); !reflect.DeepEqual(plain, got) {
		t.Fatalf("RunCached differs from Run:\nRun: %v\nRunCached: %v", plain, got)
	}
	if c.Stats != (CacheStats{Misses: len(pkgs)}) {
		t.Errorf("stats %+v, want %d misses and no hits", c.Stats, len(pkgs))
	}
}

// TestRunAllEqualsEachAlone pins the shared function table: the module
// analyzers of one Run read one table, and none may change what another
// reports. Run(All()) must equal the union of every analyzer run alone.
func TestRunAllEqualsEachAlone(t *testing.T) {
	dir := writeModule(t, "iprune", map[string]string{
		"internal/tile/kernel.go": "package tile\n\n" +
			"var half = 1 / 2.0\n\n" +
			"func Scale(x float64) float64 { return x * half }\n\n" +
			"//iprune:hotpath\nfunc Hot(x float64) float64 { return Scale(x) }\n",
		"internal/nn/alloc.go": "package nn\n\n" +
			"func grow(xs []int) []int { return append(xs, 1) }\n\n" +
			"//iprune:hotpath\nfunc Hot(xs []int) []int {\n" +
			"\tfor range xs {\n\t\txs = append(xs, 1)\n\t\txs = grow(xs)\n\t}\n\treturn xs\n}\n",
		"internal/pool/locks.go": "package pool\n\nimport \"sync\"\n\n" +
			"var a, b sync.Mutex\n\n" +
			"func AB() {\n\ta.Lock()\n\tb.Lock()\n\tb.Unlock()\n\ta.Unlock()\n}\n\n" +
			"func BA() {\n\tb.Lock()\n\ta.Lock()\n\ta.Unlock()\n\tb.Unlock()\n}\n\n" +
			"func Spin() {\n\tgo func() {\n\t\tfor {\n\t\t}\n\t}()\n}\n",
	})
	l, pkgs := loadModule(t, dir, "./...")
	all := Run(All(), pkgs, l.Directives())
	var alone []Diagnostic
	for _, a := range All() {
		alone = append(alone, Run([]*Analyzer{a}, pkgs, l.Directives())...)
	}
	Sort(alone)
	if !reflect.DeepEqual(all, alone) {
		t.Fatalf("Run(All()) differs from the analyzers run alone:\nall:   %v\nalone: %v", all, alone)
	}
	found := map[string]bool{}
	for _, d := range all {
		found[d.Analyzer] = true
	}
	for _, name := range []string{"floatpurity", "hotalloc", "floatflow", "allocflow", "regionbudget", "lockorder", "goleak"} {
		if !found[name] {
			t.Errorf("no %s finding; the module should have one: %v", name, all)
		}
	}
}
