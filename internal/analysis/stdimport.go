package analysis

import (
	"bytes"
	"context"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"iprune/internal/pool"
)

// stdImporter type-checks the packages the module imports from outside
// itself — in practice the standard library — from source, as
// go/importer's "source" importer does, but only as far as an importer
// can see them, and returns them for less work:
//
//   - Each package is resolved once and then memoized, rather than once
//     per import edge. A standard-library package is resolved through
//     stdContext, which hides _test.go files from go/build, so their
//     headers are never read.
//   - A package's files are parsed in parallel by parseFiles.
//   - Function bodies are blanked before parsing (blankBodies): the
//     type check ignores them anyway, so the parser need not build them.
//   - Unexported package-level funcs and vars that no kept declaration
//     names are left out of the check (prune), as compiler export data
//     leaves them out.
//   - Only the imports a kept declaration can name are imported; every
//     other import of the package gets an empty stub (stubImporter).
//     runtime, for one, is reached only from function bodies.
//
// Packages are type-checked as the source importer does: function bodies
// ignored, gc sizes for GOARCH, and the first hard type error returned
// as the import's error. Cgo is never run: a package with cgo files is
// checked with a fake "C" package, so declarations that use C types have
// invalid types where the source importer would run cgo (with cgo
// enabled, unexported parts of net and os/user).
//
// Its contract is the one export data gives go vet: every exported
// object, every type with its methods and pointer method set, and every
// constant of a package it returns is the source importer's. The only
// package-scope objects it may lack are unexported funcs and vars that
// no kept declaration names; an error inside one of those goes
// unreported, as it would with export data. The Imports() of a package
// it type-checked may list stubs: empty, complete packages that no
// object of its API refers to.
type stdImporter struct {
	fset  *token.FileSet
	sizes types.Sizes
	// pkgs holds every import resolved so far, by import path and, for
	// paths whose resolution depends on the importing directory
	// (vendored and module paths), also by directory and path.
	pkgs map[string]*stdPackage
}

// stdPackage is one import's result; checked is false while the package
// itself is being type-checked, so meeting it then is an import cycle.
type stdPackage struct {
	types   *types.Package
	err     error
	checked bool
}

func newStdImporter(fset *token.FileSet) *stdImporter {
	return &stdImporter{
		fset:  fset,
		sizes: types.SizesFor(build.Default.Compiler, build.Default.GOARCH),
		pkgs:  map[string]*stdPackage{},
	}
}

// Import implements types.Importer.
func (imp *stdImporter) Import(path string) (*types.Package, error) {
	return imp.ImportFrom(path, ".", 0)
}

// ImportFrom implements types.ImporterFrom.
func (imp *stdImporter) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	key := path
	if !stdPath(path) {
		// Only a standard-library path resolves the same from every
		// directory; GOROOT's vendored packages do not.
		key = dir + "\x00" + path
	}
	p := imp.pkgs[key]
	if p == nil {
		p = imp.load(path, dir)
		imp.pkgs[key] = p
	}
	if !p.checked {
		return nil, fmt.Errorf("import cycle through package %q", path)
	}
	return p.types, p.err
}

// stdPath reports whether path names a standard-library package: its
// first element has no dot.
func stdPath(path string) bool {
	first, _, _ := strings.Cut(path, "/")
	return !strings.Contains(first, ".")
}

// stdContext is build.Default with every _test.go file left out of the
// directory listings, so that resolving a standard-library package does
// not read the headers of test files the importer never parses. Other
// packages are resolved with build.Default itself, which also reports a
// malformed _test.go.
var stdContext = func() build.Context {
	ctxt := build.Default
	ctxt.ReadDir = func(dir string) ([]fs.FileInfo, error) {
		entries, err := os.ReadDir(dir)
		var infos []fs.FileInfo
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), "_test.go") {
				infos = append(infos, entryInfo{e})
			}
		}
		return infos, err
	}
	return ctxt
}()

// entryInfo is the fs.FileInfo of a directory entry as go/build reads
// it from a listing: the name and type bits, without a stat.
type entryInfo struct{ fs.DirEntry }

func (e entryInfo) Size() int64        { return 0 }
func (e entryInfo) Mode() fs.FileMode  { return e.Type() }
func (e entryInfo) ModTime() time.Time { return time.Time{} }
func (e entryInfo) Sys() any           { return nil }

// load resolves path from dir and type-checks the package it names,
// unless it is already known under its canonical import path.
func (imp *stdImporter) load(path, dir string) *stdPackage {
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	ctxt := &build.Default
	if stdPath(path) {
		ctxt = &stdContext
	}
	bp, err := ctxt.Import(path, dir, 0)
	if err != nil {
		return &stdPackage{err: err, checked: true}
	}
	if p := imp.pkgs[bp.ImportPath]; p != nil {
		return p
	}
	p := &stdPackage{}
	imp.pkgs[bp.ImportPath] = p
	p.types, p.err = imp.check(bp)
	p.checked = true
	return p
}

// check parses and type-checks the package bp.
func (imp *stdImporter) check(bp *build.Package) (*types.Package, error) {
	names := append(append([]string(nil), bp.GoFiles...), bp.CgoFiles...)
	files, errs := parseFiles(imp.fset, bp.Dir, names, parser.SkipObjectResolution, true)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return imp.checkFiles(bp.ImportPath, files, len(bp.CgoFiles) > 0)
}

// checkFiles type-checks what an importer can see of files as the
// package path: first the declarations prune keeps, with the imports
// they do not name stubbed, and, if that check reports an error, every
// declaration again with every import real. A stubbed import whose name
// was guessed wrong (an unnamed math/rand/v2 is named rand, not v2)
// leaves a name undefined, so the stubs can only skip work: when the
// stubbed check succeeds, no kept declaration went through a stub, and
// when it fails, the package and its error are the full check's. The
// second check gets the same files, which neither prune nor a check with
// nil Info changes.
func (imp *stdImporter) checkFiles(path string, files []*ast.File, cgo bool) (*types.Package, error) {
	kept, stubs := imp.prune(files)
	pkg, err := imp.typeCheck(path, kept, cgo, stubs)
	if err != nil {
		pkg, err = imp.typeCheck(path, files, cgo, imp)
	}
	return pkg, err
}

// typeCheck type-checks files as the package path with function bodies
// ignored, importing through importer, and returns the first hard error
// as the package's error.
func (imp *stdImporter) typeCheck(path string, files []*ast.File, cgo bool, importer types.ImporterFrom) (*types.Package, error) {
	var hard error
	conf := types.Config{
		IgnoreFuncBodies: true,
		FakeImportC:      cgo,
		Error: func(err error) {
			if terr, ok := err.(types.Error); hard == nil && ok && !terr.Soft {
				hard = err
			}
		},
		Importer: importer,
		Sizes:    imp.sizes,
	}
	pkg, err := conf.Check(path, imp.fset, files, nil)
	if err != nil {
		// A package with a hard error may be incompletely populated.
		if hard != nil {
			pkg, err = nil, hard
		}
		return pkg, fmt.Errorf("type-checking package %q failed (%v)", path, err)
	}
	return pkg, nil
}

// stubImporter is the importer of one check of the declarations prune
// keeps, which ignores function bodies. Such a check needs only the
// imports that a kept declaration names, and Go source names a package
// only as the base X of a selector X.Sel. So an import is needed when it
// is a dot import, when its local name — its explicit name, or else the
// last element of its path — is the base of a selector in a kept
// declaration, or when it is unsafe. Needed paths go to the shared
// importer; every other path gets a stub, an empty, complete package of
// the guessed name that is never resolved with go/build and never
// memoized, so a later real import of the same path loads the real
// package. Cgo's "C" never reaches an importer: the check fakes it.
type stubImporter struct {
	imp    *stdImporter
	needed map[string]bool // import paths that are imported for real
}

// prune returns what an importer can see of a package's files, and the
// stubImporter to check it with. It drops every unexported package-level
// func without a receiver (init included) and every var spec without an
// exported name (blank specs included) that no kept declaration names.
// Imports, types, consts, methods and exported funcs and vars are kept,
// and so is a func or var whose name occurs in a kept declaration: in
// its signature, receiver, type, initializer or constant expression, so
// len(tbl) or unsafe.Sizeof(v) in a constant keeps tbl or v. The kept
// set is a fixpoint over identifiers, grown from the always-kept
// declarations by walking each newly kept one once; the same walk
// collects the selector bases the stubs are decided from. A name counts
// wherever it occurs, as a local or a field key too, so the rule can
// only keep more than needed. Function bodies are never walked: the
// check ignores them, blanked or not. The files themselves are not
// changed; a file that loses declarations is returned as a shallow copy.
func (imp *stdImporter) prune(files []*ast.File) ([]*ast.File, *stubImporter) {
	hidden := map[string][]ast.Node{} // droppable declarations by name
	var roots []ast.Node
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !droppable(d) {
					roots = append(roots, d)
				} else if name := d.Name.Name; name != "init" && name != "_" {
					hidden[name] = append(hidden[name], d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if d.Tok != token.VAR || !droppable(spec) {
						roots = append(roots, spec)
						continue
					}
					for _, id := range spec.(*ast.ValueSpec).Names {
						if id.Name != "_" {
							hidden[id.Name] = append(hidden[id.Name], spec)
						}
					}
				}
			}
		}
	}

	kept := map[ast.Node]bool{}
	bases := map[string]bool{}
	work := roots
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			for _, d := range hidden[n.Name] {
				if !kept[d] {
					kept[d] = true
					work = append(work, d)
				}
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				bases[x.Name] = true
			}
			ast.Inspect(n.X, visit) // Sel names a field, method or another package's object
			return false
		case *ast.Field:
			if n.Type != nil {
				ast.Inspect(n.Type, visit) // Names declare, they do not name
			}
			return false
		}
		return true
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				ast.Inspect(d.Recv, visit)
			}
			ast.Inspect(d.Type, visit)
		case *ast.ValueSpec:
			if d.Type != nil {
				ast.Inspect(d.Type, visit)
			}
			for _, v := range d.Values {
				ast.Inspect(v, visit)
			}
		case *ast.TypeSpec:
			if d.TypeParams != nil {
				ast.Inspect(d.TypeParams, visit)
			}
			ast.Inspect(d.Type, visit)
		}
	}

	needed := map[string]bool{"unsafe": true}
	out := make([]*ast.File, len(files))
	for i, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue // the check rejects the path without importing it
			}
			name := guessName(path)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			if name == "." || bases[name] {
				needed[path] = true
			}
		}
		decls := make([]ast.Decl, 0, len(f.Decls))
		changed := false
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if droppable(d) && !kept[d] {
					changed = true
					continue
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					break
				}
				specs := make([]ast.Spec, 0, len(d.Specs))
				for _, spec := range d.Specs {
					if !droppable(spec) || kept[spec] {
						specs = append(specs, spec)
					}
				}
				if len(specs) < len(d.Specs) {
					changed = true
					if len(specs) == 0 {
						continue
					}
					gd := *d
					gd.Specs = specs
					decl = &gd
				}
			}
			decls = append(decls, decl)
		}
		out[i] = f
		if changed {
			pf := *f
			pf.Decls = decls
			out[i] = &pf
		}
	}
	return out, &stubImporter{imp: imp, needed: needed}
}

// droppable reports whether prune may leave out a declaration: an
// unexported func without a receiver, or a var spec (a value spec of a
// var declaration) without an exported name.
func droppable(n ast.Node) bool {
	switch d := n.(type) {
	case *ast.FuncDecl:
		return d.Recv == nil && !d.Name.IsExported()
	case *ast.ValueSpec:
		for _, id := range d.Names {
			if id.IsExported() {
				return false
			}
		}
		return true
	}
	return false
}

// guessName guesses a package's name from its import path: the path's
// last element.
func guessName(path string) string {
	return path[strings.LastIndexByte(path, '/')+1:]
}

// Import implements types.Importer.
func (s *stubImporter) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, ".", 0)
}

// ImportFrom implements types.ImporterFrom.
func (s *stubImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if s.needed[path] {
		return s.imp.ImportFrom(path, dir, mode)
	}
	stub := types.NewPackage(path, guessName(path))
	stub.MarkComplete()
	return stub, nil
}

// parseFiles parses the named files of dir into fset, spread over at
// most GOMAXPROCS goroutines that are all joined before it returns. It
// returns the files that parsed and the errors of those that did not,
// each in name order. With blank set, function bodies are blanked
// before parsing (see blankBodies).
func parseFiles(fset *token.FileSet, dir string, names []string, mode parser.Mode, blank bool) ([]*ast.File, []error) {
	parsed := make([]*ast.File, len(names))
	failed := make([]error, len(names))
	parse := func(i int) {
		path := filepath.Join(dir, names[i])
		src, err := os.ReadFile(path)
		if err != nil {
			failed[i] = err
			return
		}
		if blank {
			blankBodies(src)
		}
		parsed[i], failed[i] = parser.ParseFile(fset, path, src, mode)
	}
	_ = pool.Run(context.Background(), runtime.GOMAXPROCS(0), len(names), parse) // a Background context never cancels
	var files []*ast.File
	var errs []error
	for i := range names {
		if failed[i] != nil {
			errs = append(errs, failed[i])
			continue
		}
		files = append(files, parsed[i])
	}
	return files, errs
}

// blankBodies overwrites with spaces the body of every top-level
// function declaration in src, between its braces, keeping each newline
// and the length of src. Every token outside the bodies therefore keeps
// its token.Position, and a type check that ignores function bodies
// sees the same declarations, while the parser builds no statements.
//
// A declaration starts at a `func` token at bracket depth 0 that follows
// a semicolon (explicit, or inserted at a line end by Go's rule); its
// body is the first `{` at its own depth 0 that does not open a
// `struct` or `interface` type in the signature. A declaration that ends
// before any such brace has no body. Function types and literals
// elsewhere (`var fs = [...]func(){f, g}`) do not start a declaration
// and are left alone, as is a body holding a //line directive, which
// would move the positions after it. Input that is not valid Go only
// keeps its length and newlines.
func blankBodies(src []byte) {
	lx := goLexer{src: src}
	depth := 0
	atDecl := true // the previous token ended a declaration
	for {
		kind, start, end := lx.next()
		switch kind {
		case 0:
			return
		case ';':
			atDecl = true
			continue
		case '(', '[', '{':
			depth++
		case ')', ']', '}':
			depth--
		case 'i':
			if depth == 0 && atDecl && string(src[start:end]) == "func" {
				atDecl = blankBody(&lx)
				continue
			}
		}
		atDecl = false
	}
}

// blankBody scans one function declaration from just after its `func`
// keyword and blanks its body, if it has one. It reports whether the
// declaration ended at a semicolon without a body.
func blankBody(lx *goLexer) bool {
	depth := 0
	typeLit := false // the previous token was struct or interface
	for {
		kind, start, end := lx.next()
		switch kind {
		case 0:
			return false
		case ';':
			if depth == 0 {
				return true
			}
		case '{':
			if depth == 0 && !typeLit {
				blankBlock(lx)
				return false
			}
			depth++
		case '(', '[':
			depth++
		case ')', ']', '}':
			if depth--; depth < 0 {
				return false
			}
		}
		word := lx.src[start:end]
		typeLit = kind == 'i' && (string(word) == "struct" || string(word) == "interface")
	}
}

// blankBlock blanks the block whose contents start at lx.pos, up to its
// closing brace, and moves lx past that brace. Inside the block only
// braces, literals and comments matter, so it scans bytes rather than
// tokens. An unterminated block, or one holding a //line directive, is
// left as it is.
func blankBlock(lx *goLexer) {
	src := lx.src
	from := lx.pos
	depth := 1
	lineDirective := false
	for i := from; i < len(src); {
		switch c := src[i]; {
		case c == '"' || c == '\'' || c == '`':
			i = literalEnd(src, i)
			continue
		case c == '/' && isComment(src, i):
			lineDirective = lineDirective || isLineDirective(src, i)
			i, _ = commentEnd(src, i)
			continue
		case c == '{':
			depth++
		case c == '}':
			if depth--; depth == 0 {
				if !lineDirective {
					for j := from; j < i; j++ {
						if src[j] != '\n' {
							src[j] = ' '
						}
					}
				}
				lx.pos, lx.semi = i+1, true
				return
			}
		}
		i++
	}
	lx.pos = len(src)
}

// goLexer splits Go source into just the tokens blankBodies needs:
// brackets, semicolons (with Go's automatic insertion at line ends),
// identifiers and keywords, and everything else lumped together.
// Comments and the insides of string and rune literals are skipped.
type goLexer struct {
	src []byte
	pos int
	// semi is set when a newline here would end the statement: the
	// previous token was an identifier, a literal, one of the keywords
	// break, continue, fallthrough and return, ++, --, ), ] or }.
	semi bool
}

// next returns the next token's kind and span. The kind is 0 at the end
// of input, ';' for a semicolon, 'i' for an identifier or keyword, 'l'
// for a literal, the bracket itself for a bracket, and 'o' for any
// other operator.
func (lx *goLexer) next() (kind byte, start, end int) {
	src := lx.src
	for lx.pos < len(src) {
		start = lx.pos
		c := src[start]
		switch {
		case c == '\n':
			lx.pos++
			if lx.semi {
				lx.semi = false
				return ';', start, lx.pos
			}
			continue
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
			continue
		case c == '/' && isComment(src, start):
			var multiline bool
			lx.pos, multiline = commentEnd(src, start)
			if multiline && lx.semi {
				// A comment spanning lines acts as a newline.
				lx.semi = false
				return ';', start, lx.pos
			}
			continue
		case c == '"' || c == '\'' || c == '`':
			lx.pos = literalEnd(src, start)
			kind = 'l'
		case isWordByte(c) && !('0' <= c && c <= '9'):
			for lx.pos < len(src) && isWordByte(src[lx.pos]) {
				lx.pos++
			}
			kind = 'i'
		case '0' <= c && c <= '9':
			// Enough of a number to know it is one; a signed exponent
			// splits it, which is harmless: it still ends in a literal.
			for lx.pos < len(src) && (isWordByte(src[lx.pos]) || src[lx.pos] == '.') {
				lx.pos++
			}
			kind = 'l'
		case c == ';' || c == '(' || c == '[' || c == '{' || c == ')' || c == ']' || c == '}':
			lx.pos++
			kind = c
		case (c == '+' || c == '-') && start+1 < len(src) && src[start+1] == c:
			lx.pos += 2
			kind = 'l' // ++ and -- end a statement as a literal does
		default:
			lx.pos++
			kind = 'o'
		}
		end = lx.pos
		switch kind {
		case 'i':
			lx.semi = wordEndsStatement(src[start:end])
		case 'l', ')', ']', '}':
			lx.semi = true
		default:
			lx.semi = false
		}
		return kind, start, end
	}
	if lx.semi {
		lx.semi = false
		return ';', len(src), len(src)
	}
	return 0, len(src), len(src)
}

// literalEnd returns the offset just past the string, raw string or rune
// literal starting at i; an unterminated one ends at its line's end.
func literalEnd(src []byte, i int) int {
	quote := src[i]
	for i++; i < len(src); i++ {
		c := src[i]
		switch {
		case c == quote:
			return i + 1
		case quote == '`':
		case c == '\n':
			return i
		case c == '\\' && i+1 < len(src) && src[i+1] != '\n':
			i++
		}
	}
	return len(src)
}

// isComment reports whether a comment starts at i, which holds a '/'.
func isComment(src []byte, i int) bool {
	return i+1 < len(src) && (src[i+1] == '/' || src[i+1] == '*')
}

// commentEnd returns the offset just past the comment starting at i —
// before the newline ending a // comment — and whether the comment
// spans lines.
func commentEnd(src []byte, i int) (end int, multiline bool) {
	if src[i+1] == '/' {
		if n := bytes.IndexByte(src[i:], '\n'); n >= 0 {
			return i + n, false
		}
		return len(src), false
	}
	end = len(src)
	if n := bytes.Index(src[i+2:], []byte("*/")); n >= 0 {
		end = i + 2 + n + 2
	}
	return end, bytes.IndexByte(src[i:end], '\n') >= 0
}

// isLineDirective reports whether the comment at i is a //line or
// /*line directive, which sets the positions of what follows it.
func isLineDirective(src []byte, i int) bool {
	return bytes.HasPrefix(src[i+2:], []byte("line "))
}

// isWordByte reports whether c can occur in an identifier or a number.
// Every non-ASCII byte counts, so a UTF-8 letter is one word.
func isWordByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c >= 0x80
}

// wordEndsStatement reports whether a newline after the identifier or
// keyword w inserts a semicolon: true for identifiers and the keywords
// break, continue, fallthrough and return.
func wordEndsStatement(w []byte) bool {
	switch string(w) {
	case "case", "chan", "const", "default", "defer", "else", "for", "func",
		"go", "goto", "if", "import", "interface", "map", "package", "range",
		"select", "struct", "switch", "type", "var":
		return false
	}
	return true
}
