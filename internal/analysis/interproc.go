package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"iprune/internal/analysis/flow"
)

// FloatFlow and AllocFlow propagate the floatpurity and hotalloc
// invariants interprocedurally: a //iprune:hotpath function that *calls*
// a helper which (possibly transitively) performs float arithmetic or
// allocates has exactly the same problem as one that does so inline —
// the syntactic analyzers just cannot see it, because the offending
// construct lives in another function or another package.
//
// Every module analyzer of a run reads one function table (funcTable):
// one walk over the module's declarations records each function's float
// sites, allocation sites (with loop depth) and static module-internal
// call edges (with loop depth), plus the float sites of package-level
// declarations. floatpurity and hotalloc report sites straight from it;
// floatflow and allocflow close each function's first unsuppressed site
// under the call graph to a fixpoint and check every call edge leaving
// a hotpath function against the callee's closure.
//
// Interface-method calls are devirtualized by class-hierarchy analysis
// restricted to interfaces *defined in this module*: the call fans out
// to every module type implementing the interface (obs.Tracer-shaped
// dispatch, including single-implementation interfaces), each edge
// labeled with the interface method it came from. Interfaces with more
// than devirtMaxImpls module implementations — wide plug-in surfaces
// like nn.Layer — and stdlib interfaces (io.Writer) are skipped: there
// the analysis stays deliberately under-approximate rather than noisy.
//
// A function carrying a func-level allow-float / allow-alloc blessing
// is an audited boundary: its own sites are exempt *and* its callees'
// sites do not propagate through it. Without that rule, devirtualizing
// a blessed wrapper (obs.EnergyClock.Emit) would re-surface everything
// behind it at every hot call site the blessing already vouched for.
//
// FloatFlow reports ANY call from a hotpath function to a float-reaching
// callee, but only inside the fixed-point kernel packages (floatpurity's
// scope): elsewhere in the module, float use is legitimate. AllocFlow
// reports only calls made from inside a loop (matching hotalloc's
// depth rule — a once-per-invocation allocation is amortized) and
// applies module-wide.

// FloatFlow propagates the fixed-point purity invariant over the call
// graph. Suppress at the call site with //iprune:allow-float <reason>.
var FloatFlow = &Analyzer{
	Name:      "floatflow",
	Doc:       "no calls from fixed-point hot paths to float-using functions (interprocedural)",
	Allow:     "allow-float",
	Scope:     FloatPurity.Scope,
	RunModule: runFloatFlow,
}

// AllocFlow propagates the hot-loop allocation invariant over the call
// graph. Suppress at the call site with //iprune:allow-alloc <reason>.
var AllocFlow = &Analyzer{
	Name:      "allocflow",
	Doc:       "no calls from hot-path loops to allocating functions (interprocedural)",
	Allow:     "allow-alloc",
	Scope:     func(path string) bool { return true },
	RunModule: runAllocFlow,
}

// devirtMaxImpls caps the fan-out of one devirtualized interface call:
// an interface with more module implementations than this is treated as
// an open plug-in surface and its calls stay unresolved.
const devirtMaxImpls = 6

// callEdge is one call site inside a summarized function; via is the
// interface method the edge was devirtualized from (nil for a static
// call).
type callEdge struct {
	callee *types.Func
	pos    token.Pos
	inLoop bool
	via    *types.Func
}

// floatSite is one float operation or conversion: conv is the float
// type converted to, or nil for arithmetic with operator op.
type floatSite struct {
	pkg  *Package
	pos  token.Pos
	op   token.Token
	conv types.Type
}

// allocSite is one allocation inside a function body: what is "make",
// "new", "append", "map literal" or "closure", and depth counts the
// loop bodies around the site.
type allocSite struct {
	pos   token.Pos
	depth int
	what  string
}

// funcSummary is what the table knows about one function declaration.
type funcSummary struct {
	fn   *types.Func
	pkg  *Package
	decl *ast.FuncDecl

	allocs       []allocSite
	selfFloat    token.Pos // first unsuppressed float site, or NoPos
	selfAlloc    token.Pos // first unsuppressed allocation site, or NoPos
	blessedFloat bool      // func-level allow-float: audited boundary
	blessedAlloc bool      // func-level allow-alloc: audited boundary
	edges        []callEdge
	ifaceCalls   []callEdge // interface-method calls; via holds the method

	// Fixpoint results: the witness site and the call chain (excluding
	// this function) leading to it. floatSite/allocSite == NoPos means
	// unreachable.
	floatSite token.Pos
	floatPath []*types.Func
	allocSite token.Pos
	allocPath []*types.Func
}

// funcTable is one run's function declarations with bodies, in package,
// file and source order, and every float site of the run's packages.
// Run and RunOne build it the first time a module analyzer asks for it
// (ModulePass.table); every module analyzer of the run then reads the
// same table, devirtualizer and float/alloc closure, and none changes
// what they record. The table also holds the control-flow graph of each
// function body an analyzer of the run has asked for (cfg), per-package
// analyzers included, so each body's graph is built once per run.
type funcTable struct {
	pkgs  []*Package
	dirs  *Directives
	built bool

	funcs  []*funcSummary
	index  map[*types.Func]*funcSummary
	floats []floatSite // file and visit order, package level included
	dv     *devirtualizer
	graphs map[*ast.BlockStmt]*flow.Graph
}

// cfg returns the control-flow graph of one function body, built the
// first time an analyzer of the run asks for it. Analyzers share the
// graph and only read it.
func (t *funcTable) cfg(body *ast.BlockStmt) *flow.Graph {
	g := t.graphs[body]
	if g == nil {
		if t.graphs == nil {
			t.graphs = map[*ast.BlockStmt]*flow.Graph{}
		}
		g = flow.Build(body)
		t.graphs[body] = g
	}
	return g
}

// build walks every declaration of every package once, resolves the
// interface calls and closes the float/alloc summaries.
func (t *funcTable) build() {
	t.built = true
	t.index = map[*types.Func]*funcSummary{}
	for _, pkg := range t.pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var s *funcSummary
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						s = &funcSummary{fn: fn, pkg: pkg, decl: fd,
							blessedFloat: t.dirs.ObjHas(fn, "allow-float"),
							blessedAlloc: t.dirs.ObjHas(fn, "allow-alloc")}
						t.funcs = append(t.funcs, s)
						t.index[fn] = s
					}
				}
				t.walk(pkg, decl, s)
			}
		}
	}
	t.dv = newDevirtualizer(t.pkgs, t.index)
	for _, s := range t.funcs {
		for _, ic := range s.ifaceCalls {
			for _, impl := range t.dv.resolve(ic.via) {
				e := ic
				e.callee = impl
				s.edges = append(s.edges, e)
			}
		}
	}
	propagate(t.funcs, t.index)
}

// devirtualizer resolves interface-method calls to the module types
// implementing them via class-hierarchy analysis (see the package
// comment for the scoping rules). The function table owns the one
// devirtualizer of a run, so every pass prices the same devirtualized
// call graph.
type devirtualizer struct {
	pkgs       []*Package
	modulePkgs map[*types.Package]bool
	index      map[*types.Func]*funcSummary
	memo       map[*types.Func][]*types.Func
	impls      map[*types.Named][]implementer
}

// implementer is one module type implementing an interface: the
// receiver its methods are looked up on (the type or a pointer to it)
// and the package declaring the type.
type implementer struct {
	recv types.Type
	pkg  *types.Package
}

// newDevirtualizer builds a resolver over the module's packages; index
// filters out implementations (promoted methods, externals) the table
// has no summary for.
func newDevirtualizer(pkgs []*Package, index map[*types.Func]*funcSummary) *devirtualizer {
	modulePkgs := make(map[*types.Package]bool, len(pkgs))
	for _, pkg := range pkgs {
		if pkg.Types != nil {
			modulePkgs[pkg.Types] = true
		}
	}
	return &devirtualizer{
		pkgs:       pkgs,
		modulePkgs: modulePkgs,
		index:      index,
		memo:       map[*types.Func][]*types.Func{},
		impls:      map[*types.Named][]implementer{},
	}
}

// resolve returns the module implementations of one interface method, or
// nil when the call must stay unresolved (non-module interface, or a
// plug-in surface wider than devirtMaxImpls).
func (dv *devirtualizer) resolve(m *types.Func) []*types.Func {
	if impls, ok := dv.memo[m]; ok {
		return impls
	}
	dv.memo[m] = nil
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	named, _ := sig.Recv().Type().(*types.Named)
	if named == nil || named.Obj().Pkg() == nil || !dv.modulePkgs[named.Obj().Pkg()] {
		return nil // anonymous or non-module interface: stay conservative
	}
	iface, ok := named.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var impls []*types.Func
	seen := map[*types.Func]bool{}
	for _, im := range dv.implementers(named, iface) {
		obj, _, _ := types.LookupFieldOrMethod(im.recv, true, im.pkg, m.Name())
		fn, ok := obj.(*types.Func)
		if !ok || seen[fn] {
			continue
		}
		if _, ok := dv.index[fn]; !ok {
			continue // promoted from outside the module: no summary
		}
		seen[fn] = true
		impls = append(impls, fn)
	}
	if len(impls) > devirtMaxImpls {
		impls = nil // open plug-in surface: leave unresolved
	}
	dv.memo[m] = impls
	return impls
}

// implementers returns the module types implementing the interface
// named, directly or through a pointer, in package and scope order. It
// scans every named type once per interface, however many of the
// interface's methods are resolved.
func (dv *devirtualizer) implementers(named *types.Named, iface *types.Interface) []implementer {
	if ims, ok := dv.impls[named]; ok {
		return ims
	}
	var ims []implementer
	for _, pkg := range dv.pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			T := tn.Type()
			if types.IsInterface(T) {
				continue
			}
			switch {
			case types.Implements(T, iface):
				ims = append(ims, implementer{T, tn.Pkg()})
			case types.Implements(types.NewPointer(T), iface):
				ims = append(ims, implementer{types.NewPointer(T), tn.Pkg()})
			}
		}
	}
	dv.impls[named] = ims
	return ims
}

// walk records the float sites of one declaration and, when s is its
// summary, the allocation sites and call edges of its body. It visits
// what ast.Inspect visits, in the same order. A node's loop depth counts
// the loop bodies around it, so a loop's header (init, condition, post,
// range expression) sits at the depth enclosing the loop, and a
// closure's body at the depth the closure is created at: the closure
// runs at least as often as it is allocated. Function literals fold
// into the enclosing declaration; they inherit its directives.
func (t *funcTable) walk(pkg *Package, decl ast.Decl, s *funcSummary) {
	info := pkg.Info
	isFloat := func(e ast.Expr) bool { return isFloatType(info.Types[e].Type) }
	noteFloat := func(pos token.Pos, op token.Token, conv types.Type) {
		t.floats = append(t.floats, floatSite{pkg: pkg, pos: pos, op: op, conv: conv})
		if s != nil && s.selfFloat == token.NoPos && !t.dirs.allows(pkg.Fset.Position(pos), s.fn, "allow-float") {
			s.selfFloat = pos
		}
	}
	noteAlloc := func(pos token.Pos, depth int, what string) {
		if s == nil {
			return // package-level allocations run once
		}
		s.allocs = append(s.allocs, allocSite{pos: pos, depth: depth, what: what})
		if s.selfAlloc == token.NoPos && !t.dirs.allows(pkg.Fset.Position(pos), s.fn, "allow-alloc") {
			s.selfAlloc = pos
		}
	}
	var visit func(root ast.Node, depth int)
	visit = func(root ast.Node, depth int) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				for _, h := range [...]ast.Node{n.Init, n.Cond, n.Post} {
					if h != nil {
						visit(h, depth)
					}
				}
				visit(n.Body, depth+1)
				return false
			case *ast.RangeStmt:
				for _, h := range [...]ast.Node{n.Key, n.Value, n.X} {
					if h != nil {
						visit(h, depth)
					}
				}
				visit(n.Body, depth+1)
				return false
			case *ast.BinaryExpr:
				if arithmeticOp(n.Op) && (isFloat(n.X) || isFloat(n.Y)) {
					noteFloat(n.OpPos, n.Op, nil)
				}
			case *ast.UnaryExpr:
				if (n.Op == token.SUB || n.Op == token.ADD) && isFloat(n.X) {
					noteFloat(n.OpPos, n.Op, nil)
				}
			case *ast.AssignStmt:
				if arithmeticAssign(n.Tok) {
					for _, lhs := range n.Lhs {
						if isFloat(lhs) {
							noteFloat(n.TokPos, n.Tok, nil)
							break
						}
					}
				}
			case *ast.FuncLit:
				noteAlloc(n.Pos(), depth, "closure")
			case *ast.CompositeLit:
				if typ := info.Types[n].Type; typ != nil {
					if _, ok := typ.Underlying().(*types.Map); ok {
						noteAlloc(n.Pos(), depth, "map literal")
					}
				}
			case *ast.CallExpr:
				if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
					if isFloatType(tv.Type) && len(n.Args) == 1 {
						noteFloat(n.Lparen, token.ILLEGAL, tv.Type)
					}
					break // conversion, not a call
				}
				if id, ok := n.Fun.(*ast.Ident); ok {
					if b, ok := info.Uses[id].(*types.Builtin); ok {
						switch b.Name() {
						case "make", "new", "append":
							noteAlloc(n.Pos(), depth, b.Name())
						}
						break
					}
				}
				if callee := staticCallee(info, n); callee != nil && s != nil {
					e := callEdge{callee: callee, pos: n.Pos(), inLoop: depth > 0}
					if interfaceMethod(callee) {
						e.callee, e.via = nil, callee
						s.ifaceCalls = append(s.ifaceCalls, e)
					} else {
						s.edges = append(s.edges, e)
					}
				}
			}
			return true
		})
	}
	visit(decl, 0)
}

func arithmeticOp(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
		return true
	}
	return false
}

func arithmeticAssign(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	}
	return false
}

func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0 && !strings.Contains(b.Name(), "complex")
}

// interfaceMethod reports whether fn is declared on an interface type —
// a call through it has no static callee.
func interfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isIface := sig.Recv().Type().Underlying().(*types.Interface)
	return isIface
}

// propagate closes the summaries under the call graph: a function
// reaches a float/alloc site if its own body has one, or any summarized
// callee reaches one — except through a func-level allow-* blessing,
// which marks an audited boundary that callers need not see past.
// Iteration order is fixed so witness chains are deterministic.
func propagate(order []*funcSummary, index map[*types.Func]*funcSummary) {
	for _, s := range order {
		s.floatSite, s.allocSite = s.selfFloat, s.selfAlloc
	}
	for changed := true; changed; {
		changed = false
		for _, s := range order {
			for _, e := range s.edges {
				c, ok := index[e.callee]
				if !ok {
					continue
				}
				if !s.blessedFloat && s.floatSite == token.NoPos && c.floatSite != token.NoPos {
					s.floatSite = c.floatSite
					s.floatPath = append([]*types.Func{c.fn}, c.floatPath...)
					changed = true
				}
				if !s.blessedAlloc && s.allocSite == token.NoPos && c.allocSite != token.NoPos {
					s.allocSite = c.allocSite
					s.allocPath = append([]*types.Func{c.fn}, c.allocPath...)
					changed = true
				}
			}
		}
	}
}

func runFloatFlow(mp *ModulePass) {
	t := mp.table()
	for _, s := range t.funcs {
		if !mp.Dirs.ObjHas(s.fn, "hotpath") {
			continue
		}
		pass := mp.Pass(s.pkg)
		for _, e := range s.edges {
			c, ok := t.index[e.callee]
			if !ok || c.floatSite == token.NoPos {
				continue
			}
			pass.Reportf(e.pos, "fixed-point hot path calls %s, which %s float arithmetic at %s",
				edgeName(e, c), reachVerb(c.floatPath), s.pkg.Fset.Position(c.floatSite))
		}
	}
}

func runAllocFlow(mp *ModulePass) {
	t := mp.table()
	for _, s := range t.funcs {
		if !mp.Dirs.ObjHas(s.fn, "hotpath") {
			continue
		}
		pass := mp.Pass(s.pkg)
		for _, e := range s.edges {
			if !e.inLoop {
				continue // once-per-invocation calls are amortized
			}
			c, ok := t.index[e.callee]
			if !ok || c.allocSite == token.NoPos {
				continue
			}
			pass.Reportf(e.pos, "hot loop calls %s, which %s an allocation at %s",
				edgeName(e, c), reachVerb(c.allocPath), s.pkg.Fset.Position(c.allocSite))
		}
	}
}

// edgeName renders the callee of one edge, noting the interface method
// a devirtualized edge came from.
func edgeName(e callEdge, c *funcSummary) string {
	name := funcName(c.fn)
	if e.via != nil {
		name += " (devirtualized from " + funcName(e.via) + ")"
	}
	return name
}

// reachVerb phrases how the callee reaches the witness site: directly,
// or through a chain of further calls.
func reachVerb(path []*types.Func) string {
	if len(path) == 0 {
		return "performs"
	}
	names := make([]string, len(path))
	for i, fn := range path {
		names[i] = funcName(fn)
	}
	return "reaches (via " + strings.Join(names, " -> ") + ")"
}

// funcName renders a function or method with its receiver type.
func funcName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}
