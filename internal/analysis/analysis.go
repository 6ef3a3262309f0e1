// Package analysis is a small static-analysis framework for this
// repository, built only on the standard library's go/parser, go/ast and
// go/types (no golang.org/x/tools dependency). It enforces the invariants
// the Go compiler cannot see but the paper's claims rest on:
//
//   - floatpurity: inference hot paths stay in Q1.15 fixed point — no
//     float arithmetic or conversions in the kernel packages;
//   - nvmdiscipline: stores to FRAM-backed state and energy counters flow
//     through the hawaii progress-preservation discipline API;
//   - hotalloc: functions marked //iprune:hotpath do not allocate inside
//     loops;
//   - errcheck: error returns are not silently discarded;
//   - warhazard: no write-after-read hazard on NVM state between
//     preservation points (CFG + dataflow, see flow/ and warhazard.go);
//   - parsafe: goroutines do not race NVM state, hot paths or
//     WaitGroup accounting;
//   - floatflow / allocflow: the float-purity and hot-alloc invariants
//     propagated interprocedurally over the module call graph;
//   - regionbudget: every preserve-to-preserve region in a hot path has
//     a static worst-case cost within the power-cycle energy budget
//     (trip-count inference + interprocedural summaries, see
//     regionbudget.go);
//   - lockorder: mutexes are acquired in one global order;
//   - goleak: spawned goroutines terminate, and channels are not closed
//     twice, sent to after a close, or sent to with no receiver.
//
// The seven module analyzers (floatpurity, hotalloc, floatflow,
// allocflow, regionbudget, lockorder, goleak) read one function table
// per run (see interproc.go).
//
// Analyzers report findings through Pass.Reportf, which consults the
// directive index (see directives.go) so that //iprune:allow-* escape
// hatches suppress findings at file, function or line granularity.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, resolved to a concrete source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check over a type-checked package, or — when
// RunModule is set — over every loaded package at once (for
// interprocedural passes that need the whole call graph).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-line description.
	Doc string
	// Allow is the directive suffix that suppresses this analyzer's
	// findings (e.g. "allow-float"); empty means no escape hatch.
	Allow string
	// Scope reports whether the analyzer applies to a package import
	// path: per-package analyzers are not run outside it, module-level
	// analyzers do not *report* outside it (their summaries still cover
	// every package). The driver consults it; running an analyzer
	// directly (as the fixture harness does) bypasses it.
	Scope func(pkgPath string) bool
	// Run performs a per-package check, reporting via pass.Reportf.
	// Exactly one of Run and RunModule is set.
	Run func(pass *Pass)
	// RunModule performs a whole-module check across every loaded
	// package, reporting via mp.Pass(pkg).Reportf.
	RunModule func(mp *ModulePass)
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Fset  *token.FileSet
	Pkg   *Package
	Info  *types.Info
	Dirs  *Directives
	diags *[]Diagnostic
	allow string // directive suffix suppressing this analyzer
	name  string
	funcs *funcTable // the run's table, for its shared control-flow graphs
}

// Reportf records a finding unless a matching allow directive covers the
// position (same line, the line above, the enclosing function's doc
// comment, or the file header).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.diags == nil {
		return // a module analyzer's report outside its Scope
	}
	position := p.Fset.Position(pos)
	if p.allow != "" && p.suppressed(pos, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (p *Pass) suppressed(pos token.Pos, position token.Position) bool {
	var fn types.Object
	if decl := p.EnclosingFunc(pos); decl != nil {
		fn = p.Info.Defs[decl.Name]
	}
	return p.Dirs.allows(position, fn, p.allow)
}

// EnclosingFunc returns the innermost function declaration whose body
// spans pos, or nil. Function literals inherit their enclosing
// declaration's directives, so the declaration is what matters.
func (p *Pass) EnclosingFunc(pos token.Pos) *ast.FuncDecl {
	for _, f := range p.Pkg.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
				return fd
			}
		}
	}
	return nil
}

// FuncHas reports whether the declaration carries the directive.
func (p *Pass) FuncHas(decl *ast.FuncDecl, name string) bool {
	obj := p.Info.Defs[decl.Name]
	return obj != nil && p.Dirs.ObjHas(obj, name)
}

// ModulePass carries one module-level analyzer run over every loaded
// package. Analyses that need the whole call graph iterate mp.Pkgs for
// summaries and report through the per-package Pass.
type ModulePass struct {
	Pkgs []*Package
	Dirs *Directives

	diags  *[]Diagnostic
	allow  string
	name   string
	scope  func(string) bool
	passes map[*Package]*Pass
	funcs  *funcTable // shared by the run's module analyzers
}

// table returns the run's function table, building it on first use.
func (mp *ModulePass) table() *funcTable {
	if !mp.funcs.built {
		mp.funcs.build()
	}
	return mp.funcs
}

// Pass returns the reporting pass for one of the module's packages.
// When the analyzer's Scope excludes the package, reports through the
// returned pass are dropped (summaries over excluded packages still
// feed included findings).
func (mp *ModulePass) Pass(pkg *Package) *Pass {
	if p, ok := mp.passes[pkg]; ok {
		return p
	}
	diags := mp.diags
	if mp.scope != nil && !mp.scope(pkg.Path) {
		diags = nil // Reportf discards
	}
	p := &Pass{
		Fset:  pkg.Fset,
		Pkg:   pkg,
		Info:  pkg.Info,
		Dirs:  mp.Dirs,
		diags: diags,
		allow: mp.allow,
		name:  mp.name,
		funcs: mp.funcs,
	}
	mp.passes[pkg] = p
	return p
}

// Run executes the analyzers over the packages and returns all findings
// sorted by position. Per-package analyzers run on each package inside
// their Scope, package by package; then each module-level analyzer runs
// once over all packages, every one reading the same function table.
// Packages that failed to type-check are skipped (the loader already
// surfaced their errors as diagnostics).
func Run(analyzers []*Analyzer, pkgs []*Package, dirs *Directives) []Diagnostic {
	clean := cleanPkgs(pkgs)
	table := &funcTable{pkgs: clean, dirs: dirs}
	var diags []Diagnostic
	for _, pkg := range clean {
		for _, a := range analyzers {
			if a.Run != nil && (a.Scope == nil || a.Scope(pkg.Path)) {
				diags = append(diags, runPkg(a, pkg, table)...)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule != nil {
			diags = append(diags, runModule(a, table, a.Scope)...)
		}
	}
	Sort(diags)
	return diags
}

// Cache is RunCached's accounting; Dir and Root are unused.
type Cache struct {
	Dir, Root string
	Stats     CacheStats
}

// CacheStats counts the packages RunCached analyzed as Misses; Hits
// stays 0.
type CacheStats struct{ Hits, Misses int }

// RunCached caches nothing and exists for perfbench's lint workload,
// which calls it: it returns Run's diagnostics and adds the number of
// packages it analyzed to c.Stats.Misses. all is unused.
func RunCached(analyzers []*Analyzer, pkgs []*Package, dirs *Directives, c *Cache, all []*Package) []Diagnostic {
	c.Stats.Misses += len(cleanPkgs(pkgs))
	return Run(analyzers, pkgs, dirs)
}

// cleanPkgs filters out packages that failed to type-check (the loader
// already surfaced their errors as diagnostics).
func cleanPkgs(pkgs []*Package) []*Package {
	clean := make([]*Package, 0, len(pkgs))
	for _, pkg := range pkgs {
		if len(pkg.Errs) == 0 {
			clean = append(clean, pkg)
		}
	}
	return clean
}

// RunOne runs a single analyzer over one package, ignoring its Scope.
// The fixture harness uses it to exercise analyzers on testdata packages
// whose import paths the Scope would reject. A module-level analyzer is
// run with that package as the whole module.
func RunOne(a *Analyzer, pkg *Package, dirs *Directives) []Diagnostic {
	table := &funcTable{pkgs: []*Package{pkg}, dirs: dirs}
	if a.RunModule != nil {
		return runModule(a, table, nil)
	}
	return runPkg(a, pkg, table)
}

// runModule runs a module-level analyzer once over the table's
// packages, keeping the reports on packages inside scope (nil keeps
// every report).
func runModule(a *Analyzer, table *funcTable, scope func(string) bool) []Diagnostic {
	var diags []Diagnostic
	a.RunModule(&ModulePass{
		Pkgs:   table.pkgs,
		Dirs:   table.dirs,
		diags:  &diags,
		allow:  a.Allow,
		name:   a.Name,
		scope:  scope,
		passes: map[*Package]*Pass{},
		funcs:  table,
	})
	return diags
}

// runPkg runs a per-package analyzer over one package of the table's
// run.
func runPkg(a *Analyzer, pkg *Package, table *funcTable) []Diagnostic {
	var diags []Diagnostic
	pass := &Pass{
		Fset:  pkg.Fset,
		Pkg:   pkg,
		Info:  pkg.Info,
		Dirs:  table.dirs,
		diags: &diags,
		allow: a.Allow,
		name:  a.Name,
		funcs: table,
	}
	a.Run(pass)
	return diags
}

// Sort orders diagnostics by file, line, column, analyzer, message. The
// message tiebreaker makes the order total, so identical finding sets
// serialize identically whatever order the analyzers produced them in.
func Sort(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// All returns the project analyzers in their canonical order, the order
// iprunelint -list prints: floatpurity, nvmdiscipline, hotalloc and
// errcheck, the CFG/dataflow WAR-hazard and goroutine-safety passes,
// the three interprocedural call-graph passes, and the lock-order and
// goroutine-lifecycle passes.
func All() []*Analyzer {
	return []*Analyzer{FloatPurity, NVMDiscipline, HotAlloc, ErrCheck, WARHazard, Parsafe, FloatFlow, AllocFlow, RegionBudget, LockOrder, Goleak}
}
