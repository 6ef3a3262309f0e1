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
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"iprune/internal/pool"
)

// stdImporter type-checks the packages the module imports from outside
// itself — in practice the standard library — from source, as
// go/importer's "source" importer does, and returns the same packages
// for less work:
//
//   - Each package is resolved with build.Default.Import once and then
//     memoized, rather than once per import edge.
//   - A package's files are parsed in parallel by parseFiles.
//   - Function bodies are blanked before parsing (blankBodies): the
//     type check ignores them anyway, so the parser need not build them.
//
// Packages are type-checked as the source importer does: function bodies
// ignored, gc sizes for GOARCH, and the first hard type error returned
// as the import's error. Cgo is never run: a package with cgo files is
// checked with a fake "C" package, so declarations that use C types have
// invalid types where the source importer would run cgo (with cgo
// enabled, unexported parts of net and os/user).
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
	if first, _, _ := strings.Cut(path, "/"); strings.Contains(first, ".") {
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

// load resolves path from dir and type-checks the package it names,
// unless it is already known under its canonical import path.
func (imp *stdImporter) load(path, dir string) *stdPackage {
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	bp, err := build.Default.Import(path, dir, 0)
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

func (imp *stdImporter) check(bp *build.Package) (*types.Package, error) {
	names := append(append([]string(nil), bp.GoFiles...), bp.CgoFiles...)
	files, errs := parseFiles(imp.fset, bp.Dir, names, parser.SkipObjectResolution, true)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	var hard error
	conf := types.Config{
		IgnoreFuncBodies: true,
		FakeImportC:      len(bp.CgoFiles) > 0,
		Error: func(err error) {
			if terr, ok := err.(types.Error); hard == nil && ok && !terr.Soft {
				hard = err
			}
		},
		Importer: imp,
		Sizes:    imp.sizes,
	}
	pkg, err := conf.Check(bp.ImportPath, imp.fset, files, nil)
	if err != nil {
		// A package with a hard error may be incompletely populated.
		if hard != nil {
			pkg, err = nil, hard
		}
		return pkg, fmt.Errorf("type-checking package %q failed (%v)", bp.ImportPath, err)
	}
	return pkg, nil
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
