package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The analyzers are steered by //iprune: comment directives:
//
//	//iprune:allow-float <reason>  suppress floatpurity/floatflow findings
//	//iprune:allow-nvm <reason>    suppress nvmdiscipline findings
//	//iprune:allow-alloc <reason>  suppress hotalloc/allocflow findings
//	//iprune:allow-err <reason>    suppress errcheck findings
//	//iprune:allow-war <reason>    suppress warhazard findings
//	//iprune:allow-par <reason>    suppress parsafe findings
//	//iprune:allow-conc <reason>   suppress lockorder/goleak findings
//	//iprune:allow-budget <reason> suppress regionbudget findings; a
//	                               blessed function is an audited cost
//	                               boundary callers need not see past
//	//iprune:budget <joules|ops>   declare a function's per-region energy
//	                               budget (e.g. 104uJ, 2mJ, 5000ops);
//	                               regionbudget checks the function
//	                               against it instead of the default
//	                               power-cycle buffer energy
//	//iprune:hotpath               mark a function as a hot inner kernel
//	//iprune:nvm                   mark a type or field as FRAM-backed
//	//iprune:nvm-api               mark a function as discipline API
//	//iprune:preserve              mark a function as an atomic
//	                               preservation/commit primitive: calls to
//	                               it end a WAR interval, and its own body
//	                               (the two-phase commit internals, which
//	                               always look like WARs) is exempt from
//	                               the warhazard analyzer
//
// allow-* directives require a reason — an escape hatch without a
// justification is itself a finding. Placement decides scope: on a
// function's doc comment the directive covers the whole function
// (including literals nested in it); on or directly above a line it
// covers that line; before the package clause it covers the file; on a
// type or struct-field declaration it tags that object.

const directivePrefix = "//iprune:"

// Directive is one parsed //iprune: comment.
type Directive struct {
	Name   string // e.g. "allow-float", "hotpath"
	Reason string
	Pos    token.Position
}

// knownDirectives maps each directive name to whether a reason is
// required.
var knownDirectives = map[string]bool{
	"allow-float":  true,
	"allow-nvm":    true,
	"allow-alloc":  true,
	"allow-err":    true,
	"allow-war":    true,
	"allow-par":    true,
	"allow-conc":   true,
	"allow-budget": true,
	"budget":       true, // the "reason" slot carries the budget value
	"hotpath":      false,
	"nvm":          false,
	"nvm-api":      false,
	"preserve":     false,
}

// Directives indexes every directive of a load by file, line and
// declared object, plus the diagnostics for malformed ones.
type Directives struct {
	file map[string][]Directive
	line map[string]map[int][]Directive
	obj  map[types.Object][]Directive
	// Problems are malformed directives (unknown name, missing reason),
	// reported by the driver alongside analyzer findings.
	Problems []Diagnostic
}

// NewDirectives returns an empty index.
func NewDirectives() *Directives {
	return &Directives{
		file: map[string][]Directive{},
		line: map[string]map[int][]Directive{},
		obj:  map[types.Object][]Directive{},
	}
}

// FileHas reports whether the file header carries the directive.
func (d *Directives) FileHas(filename, name string) bool {
	return hasDirective(d.file[filename], name)
}

// LineHas reports whether the directive appears on the given line.
func (d *Directives) LineHas(filename string, line int, name string) bool {
	return hasDirective(d.line[filename][line], name)
}

// ObjHas reports whether the declared object carries the directive.
func (d *Directives) ObjHas(obj types.Object, name string) bool {
	return hasDirective(d.obj[obj], name)
}

// allows reports whether an allow directive covers a position: in the
// file header, on its line or the line above, or on fn, the declaration
// enclosing it (nil outside any).
func (d *Directives) allows(p token.Position, fn types.Object, allow string) bool {
	return d.FileHas(p.Filename, allow) ||
		d.LineHas(p.Filename, p.Line, allow) ||
		d.LineHas(p.Filename, p.Line-1, allow) ||
		d.ObjHas(fn, allow)
}

// ObjGet returns the first directive with the given name on the declared
// object. Analyzers that consume a directive's value (regionbudget reads
// the budget expression out of //iprune:budget's reason slot) use this
// instead of the boolean ObjHas.
func (d *Directives) ObjGet(obj types.Object, name string) (Directive, bool) {
	for _, dir := range d.obj[obj] {
		if dir.Name == name {
			return dir, true
		}
	}
	return Directive{}, false
}

func hasDirective(dirs []Directive, name string) bool {
	for _, dir := range dirs {
		if dir.Name == name {
			return true
		}
	}
	return false
}

// parseDirective parses one comment; ok is false when the comment is not
// an //iprune: directive at all.
func parseDirective(c *ast.Comment, fset *token.FileSet) (Directive, bool) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return Directive{}, false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	name, reason, _ := strings.Cut(rest, " ")
	return Directive{
		Name:   strings.TrimSpace(name),
		Reason: strings.TrimSpace(reason),
		Pos:    fset.Position(c.Pos()),
	}, true
}

// Collect indexes every directive of the package's files and records
// malformed ones as Problems. It must run after type checking so
// directives can be attached to the declared objects.
func (d *Directives) Collect(pkg *Package) {
	fset := pkg.Fset
	for _, f := range pkg.Files {
		filename := fset.Position(f.Pos()).Filename
		if d.line[filename] == nil {
			d.line[filename] = map[int][]Directive{}
		}
		pkgClause := f.Package
		for _, group := range f.Comments {
			for _, c := range group.List {
				dir, ok := parseDirective(c, fset)
				if !ok {
					continue
				}
				needsReason, known := knownDirectives[dir.Name]
				switch {
				case !known:
					d.Problems = append(d.Problems, Diagnostic{
						Pos:      dir.Pos,
						Analyzer: "directives",
						Message:  unknownDirectiveMessage(dir.Name),
					})
					continue
				case needsReason && dir.Reason == "":
					d.Problems = append(d.Problems, Diagnostic{
						Pos:      dir.Pos,
						Analyzer: "directives",
						Message:  "//iprune:" + dir.Name + " requires a reason",
					})
					continue
				}
				d.line[filename][dir.Pos.Line] = append(d.line[filename][dir.Pos.Line], dir)
				if c.Pos() < pkgClause {
					d.file[filename] = append(d.file[filename], dir)
				}
			}
		}
		d.collectDecls(pkg, f, fset)
	}
}

// collectDecls attaches doc-comment directives to the objects they
// document: functions, type declarations and struct fields.
func (d *Directives) collectDecls(pkg *Package, f *ast.File, fset *token.FileSet) {
	attach := func(ident *ast.Ident, groups ...*ast.CommentGroup) {
		obj := pkg.Info.Defs[ident]
		if obj == nil {
			return
		}
		for _, g := range groups {
			if g == nil {
				continue
			}
			for _, c := range g.List {
				if dir, ok := parseDirective(c, fset); ok && knownDirectiveWellFormed(dir) {
					d.obj[obj] = append(d.obj[obj], dir)
				}
			}
		}
	}
	for _, decl := range f.Decls {
		switch n := decl.(type) {
		case *ast.FuncDecl:
			attach(n.Name, n.Doc)
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				// A directive on the GenDecl applies to its sole spec.
				if len(n.Specs) == 1 {
					attach(ts.Name, n.Doc, ts.Doc, ts.Comment)
				} else {
					attach(ts.Name, ts.Doc, ts.Comment)
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							attach(name, field.Doc, field.Comment)
						}
					}
				}
			}
		}
	}
}

func knownDirectiveWellFormed(dir Directive) bool {
	needsReason, known := knownDirectives[dir.Name]
	return known && (!needsReason || dir.Reason != "")
}

// unknownDirectiveMessage formats the finding for an unrecognized
// directive name, suggesting the nearest known name when one is close
// enough to be a plausible typo.
func unknownDirectiveMessage(name string) string {
	msg := "unknown directive //iprune:" + name
	if near := nearestDirective(name); near != "" {
		msg += " (did you mean //iprune:" + near + "?)"
	}
	return msg
}

// nearestDirective returns the known directive name within Levenshtein
// distance 2 of name, or "" when none qualifies. Ties break
// lexicographically so the suggestion is deterministic.
func nearestDirective(name string) string {
	best, bestDist := "", 3
	for known := range knownDirectives {
		d := editDistance(name, known)
		if d < bestDist || (d == bestDist && best != "" && known < best) {
			best, bestDist = known, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
