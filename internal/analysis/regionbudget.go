package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"iprune/internal/analysis/flow"
	"iprune/internal/energy"
)

// RegionBudget statically bounds the worst-case cost of every
// preserve-to-preserve region in //iprune:hotpath (or //iprune:budget)
// functions and reports regions that cannot complete within one power
// cycle's buffer energy.
//
// An intermittently powered device makes forward progress only if each
// atomic region — the code between two //iprune:preserve commit points —
// fits the energy the capacitor buffer delivers in one on-period.
// A region that needs more energy than the buffer stores re-executes
// forever: the device charges, runs, dies inside the region, rolls back
// to the last preserve, and repeats. CostSim observes that dynamically
// (ErrOpExceedsBuffer); this analyzer proves its absence statically.
//
// The analysis composes, per statement, a summary of five quantities,
// all abstract CPU op counts priced through the shared energy model
// (internal/energy — the same tables CostSim charges, so the two views
// cannot drift):
//
//	head   worst cost from entry to the first preserve (over paths
//	       that reach one)
//	tail   worst cost from the last preserve to exit
//	maxMid worst complete preserve-to-preserve region inside the node
//	nopres worst cost of traversing the node on a preserve-free path
//	must   every path through the node hits a preserve
//
// Sequencing, branching and counted loops (via flow.TripCount /
// flow.RangeTripCount) combine summaries exactly; everything uncertain —
// unbounded loops around unpreserved work, recursion, goto — widens to
// ⊤ and is reported as "cannot statically bound". An unbounded loop
// whose body preserves on every iteration stays bounded: its worst
// region is the wraparound tail+head, which is precisely the shape an
// intermittent event loop must have.
//
// Calls inline the callee's memoized summary over the devirtualized
// call graph (interface calls fan out to module implementations, max
// componentwise). Three directives steer the interprocedural view:
// //iprune:preserve marks a region boundary, //iprune:budget <v> both
// sets the declared function's own check threshold and prices calls to
// it as an opaque unit of that cost, and //iprune:allow-budget <reason>
// marks an audited boundary whose interior callers need not see.
//
// The op pricing is deliberately uniform — one CPU op per arithmetic,
// load, store or index step, energy.Default().CPUOpJ() each — and
// external (non-module) callees are priced at a small nominal constant:
// the companion analyzers (hotalloc, floatpurity, parsafe) already keep
// heavyweight machinery out of hot paths, so what remains is
// straight-line arithmetic where op counting is the right granularity
// for a worst-case bound.
var RegionBudget = &Analyzer{
	Name:      "regionbudget",
	Doc:       "preserve-to-preserve regions in hot paths fit the static energy budget",
	Allow:     "allow-budget",
	Scope:     func(path string) bool { return true },
	RunModule: runRegionBudget,
}

// rcostCap saturates finite cost arithmetic well below int64 overflow;
// top is reserved for genuinely unbounded costs.
const rcostCap = int64(1) << 50

// maxLoopNest bounds the nesting depth the trip-count product is taken
// over; deeper nests widen to ⊤ rather than multiplying further.
const maxLoopNest = 8

// extCallOps is the nominal price of a call whose body the analysis
// cannot see (stdlib, unresolved interface, indirect function value).
const extCallOps = 4

// rcost is a saturating abstract op count; top means statically
// unbounded.
type rcost struct {
	n   int64
	top bool
}

var topCost = rcost{top: true}

func ops(n int64) rcost {
	if n > rcostCap {
		n = rcostCap
	}
	return rcost{n: n}
}

func (a rcost) add(b rcost) rcost {
	if a.top || b.top {
		return topCost
	}
	return ops(a.n + b.n)
}

func (a rcost) mul(k int64) rcost {
	if a.top {
		return topCost
	}
	if k != 0 && a.n > rcostCap/k {
		return ops(rcostCap)
	}
	return ops(a.n * k)
}

func (a rcost) max(b rcost) rcost {
	if a.top || b.top {
		return topCost
	}
	if b.n > a.n {
		return b
	}
	return a
}

// regSummary is the compositional cost summary of one AST node (see the
// analyzer comment for the invariants).
type regSummary struct {
	head   rcost
	tail   rcost
	maxMid rcost
	nopres rcost
	must   bool
	any    bool
}

// leaf is a preserve-free node of fixed cost.
func leaf(c rcost) regSummary {
	return regSummary{nopres: c}
}

// boundary is a preservation point costing c to reach.
func boundary(c rcost) regSummary {
	return regSummary{head: c, must: true, any: true}
}

// seq composes "a then b".
func seq(a, b regSummary) regSummary {
	s := regSummary{
		must:   a.must || b.must,
		any:    a.any || b.any,
		nopres: a.nopres.add(b.nopres),
	}
	s.head = a.head
	if !a.must && b.any {
		s.head = s.head.max(a.nopres.add(b.head))
	}
	s.tail = b.tail
	if !b.must && a.any {
		s.tail = s.tail.max(a.tail.add(b.nopres))
	}
	s.maxMid = a.maxMid.max(b.maxMid)
	if a.any && b.any {
		s.maxMid = s.maxMid.max(a.tail.add(b.head))
	}
	if s.must {
		s.nopres = rcost{} // no preserve-free path exists
	}
	return s
}

// alt joins two alternative paths (branch arms). A must-preserve arm
// has no preserve-free path, so its (meaningless) nopres does not feed
// the join.
func alt(a, b regSummary) regSummary {
	var nopres rcost
	switch {
	case a.must && b.must:
	case a.must:
		nopres = b.nopres
	case b.must:
		nopres = a.nopres
	default:
		nopres = a.nopres.max(b.nopres)
	}
	return regSummary{
		head:   a.head.max(b.head),
		tail:   a.tail.max(b.tail),
		maxMid: a.maxMid.max(b.maxMid),
		nopres: nopres,
		must:   a.must && b.must,
		any:    a.any || b.any,
	}
}

// loop composes n iterations of body (n < 0 means the trip count is
// unknown). The interesting case is the unknown-trip loop whose body
// preserves on every iteration: its regions stay bounded by the
// wraparound tail+head even though its total cost does not.
func loopSummary(body regSummary, n int64) (regSummary, bool) {
	if n == 0 {
		return regSummary{}, true
	}
	if !body.any {
		if n < 0 {
			return regSummary{}, false // unbounded unpreserved work: ⊤
		}
		return leaf(body.nopres.mul(n)), true
	}
	if body.must {
		s := regSummary{
			head:   body.head,
			tail:   body.tail,
			maxMid: body.maxMid,
			any:    true,
			must:   n > 0, // an unknown trip count may be zero
		}
		if n < 0 || n >= 2 {
			s.maxMid = s.maxMid.max(body.tail.add(body.head))
		}
		return s, true
	}
	// The body may or may not preserve per iteration: a preserve-free
	// segment can span up to every iteration.
	if n < 0 {
		return regSummary{}, false
	}
	span := body.nopres.mul(n)
	return regSummary{
		head:   span.add(body.head),
		tail:   body.tail.add(span),
		maxMid: body.maxMid.max(body.tail.add(span).add(body.head)),
		nopres: span,
		any:    true,
	}, true
}

// worst is the largest single preserve-to-preserve region cost the node
// can expose (its callers' preserves delimit the outermost region).
func (s regSummary) worst() rcost {
	w := s.head.max(s.maxMid).max(s.tail)
	if !s.must {
		w = w.max(s.nopres)
	}
	return w
}

// rbFunc is one function's memoized interprocedural summary plus the
// provenance of its first widening to ⊤, for diagnostics.
type rbFunc struct {
	*funcSummary
	sum      regSummary
	widenPos token.Pos
	widenWhy string
}

// regionAnalysis carries one whole-module regionbudget run.
type regionAnalysis struct {
	mp    *ModulePass
	model energy.Model
	decls map[*types.Func]*rbFunc
	done  map[*types.Func]bool
	stack map[*types.Func]bool
	dv    *devirtualizer
}

func runRegionBudget(mp *ModulePass) {
	t := mp.table()
	ra := &regionAnalysis{
		mp:    mp,
		model: energy.Default(),
		decls: make(map[*types.Func]*rbFunc, len(t.funcs)),
		done:  map[*types.Func]bool{},
		stack: map[*types.Func]bool{},
		dv:    t.dv,
	}
	for _, s := range t.funcs {
		ra.decls[s.fn] = &rbFunc{funcSummary: s}
	}
	for _, s := range t.funcs {
		ra.check(s.fn)
	}
}

// check analyzes one function against its budget when it declares one —
// explicitly via //iprune:budget, or implicitly (the power-cycle buffer
// energy) by being marked //iprune:hotpath.
func (ra *regionAnalysis) check(fn *types.Func) {
	rf := ra.decls[fn]
	pass := ra.mp.Pass(rf.pkg)
	dir, hasBudget := ra.mp.Dirs.ObjGet(fn, "budget")
	if !hasBudget && !ra.mp.Dirs.ObjHas(fn, "hotpath") {
		return
	}

	budget := energy.Budget{Joules: ra.model.BufferJ}
	source := fmt.Sprintf("one power cycle's buffer energy (%s)", energy.FormatJ(ra.model.BufferJ))
	if hasBudget {
		b, err := energy.ParseBudget(dir.Reason)
		if err != nil {
			pass.Reportf(rf.decl.Name.Pos(), "invalid //iprune:budget value %q: %v", dir.Reason, err)
			return
		}
		budget = b
		source = "the declared budget " + budget.String()
	}

	sum := ra.summary(fn)
	name := funcName(fn)
	w := sum.worst()
	if w.top {
		why := "contains statically unboundable control flow"
		if rf.widenWhy != "" {
			why = fmt.Sprintf("%s at %s", rf.widenWhy, rf.pkg.Fset.Position(rf.widenPos))
		}
		pass.Reportf(rf.decl.Name.Pos(),
			"cannot statically bound the worst-case preserve-to-preserve region in %s: %s (add a preservation point, a constant trip count, or //iprune:allow-budget <reason>)",
			name, why)
		return
	}

	overOps := budget.Ops > 0 && w.n > budget.Ops
	wJoules := float64(w.n) * ra.model.CPUOpJ()
	overJ := budget.Ops == 0 && wJoules > budget.Joules
	if !overOps && !overJ {
		return
	}
	pass.Reportf(rf.decl.Name.Pos(),
		"worst-case preserve-to-preserve region in %s needs ~%d ops ≈ %s, exceeding %s (entry→preserve %s, interior %s, preserve→exit %s, preserve-free path %s)",
		name, w.n, energy.FormatJ(wJoules), source,
		ra.fmtCost(sum.head), ra.fmtCost(sum.maxMid), ra.fmtCost(sum.tail), ra.fmtCost(sum.nopres))
}

// fmtCost renders one breakdown component.
func (ra *regionAnalysis) fmtCost(c rcost) string {
	if c.top {
		return "⊤"
	}
	return energy.FormatJ(float64(c.n) * ra.model.CPUOpJ())
}

// summary returns fn's memoized summary, computing it on first use.
// Recursion widens to ⊤: a recursive hot path has no static bound.
func (ra *regionAnalysis) summary(fn *types.Func) regSummary {
	rf := ra.decls[fn]
	if ra.done[fn] {
		return rf.sum
	}
	if ra.stack[fn] {
		rf.sum = leaf(topCost)
		ra.note(rf, fn, rf.decl.Name.Pos(), "recursive call cycle through "+funcName(fn))
		return rf.sum
	}
	ra.stack[fn] = true
	w := &rbWalker{ra: ra, rf: rf}
	rf.sum = w.stmts(rf.decl.Body.List)
	delete(ra.stack, fn)
	ra.done[fn] = true
	return rf.sum
}

// note records the first widening witness for a function's diagnostics.
func (ra *regionAnalysis) note(rf *rbFunc, fn *types.Func, pos token.Pos, why string) {
	if rf.widenWhy == "" {
		rf.widenPos, rf.widenWhy = pos, why
	}
}

// rbWalker computes summaries for the statements of one function body.
type rbWalker struct {
	ra    *regionAnalysis
	rf    *rbFunc
	depth int // loop nesting, for the bounded product rule
}

func (w *rbWalker) widen(pos token.Pos, format string, args ...any) regSummary {
	w.ra.note(w.rf, nil, pos, fmt.Sprintf(format, args...))
	return leaf(topCost)
}

func (w *rbWalker) stmts(list []ast.Stmt) regSummary {
	var s regSummary
	for _, st := range list {
		s = seq(s, w.stmt(st))
	}
	return s
}

func (w *rbWalker) stmt(s ast.Stmt) regSummary {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
		return regSummary{}
	case *ast.BlockStmt:
		if s == nil {
			return regSummary{}
		}
		return w.stmts(s.List)
	case *ast.ExprStmt:
		return w.expr(s.X)
	case *ast.AssignStmt:
		sum := regSummary{}
		for _, r := range s.Rhs {
			sum = seq(sum, w.expr(r))
		}
		for _, l := range s.Lhs {
			sum = seq(sum, w.expr(l))
		}
		return seq(sum, leaf(ops(int64(len(s.Lhs)))))
	case *ast.IncDecStmt:
		return seq(w.expr(s.X), leaf(ops(1)))
	case *ast.DeclStmt:
		sum := regSummary{}
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						sum = seq(sum, w.expr(v))
					}
					sum = seq(sum, leaf(ops(int64(len(vs.Names)))))
				}
			}
		}
		return sum
	case *ast.ReturnStmt:
		// The statements after a return over-approximate the path; an
		// early exit only shrinks real costs.
		sum := regSummary{}
		for _, r := range s.Results {
			sum = seq(sum, w.expr(r))
		}
		return sum
	case *ast.IfStmt:
		sum := seq(w.stmt(s.Init), w.expr(s.Cond))
		return seq(sum, alt(w.stmt(s.Body), w.stmt(s.Else)))
	case *ast.ForStmt:
		return w.forStmt(s)
	case *ast.RangeStmt:
		return w.rangeStmt(s)
	case *ast.SwitchStmt:
		sum := seq(w.stmt(s.Init), w.expr(s.Tag))
		return seq(sum, w.caseClauses(s.Body))
	case *ast.TypeSwitchStmt:
		sum := seq(w.stmt(s.Init), w.stmt(s.Assign))
		return seq(sum, w.caseClauses(s.Body))
	case *ast.SelectStmt:
		arms := regSummary{}
		first := true
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			arm := seq(w.stmt(cc.Comm), w.stmts(cc.Body))
			if first {
				arms, first = arm, false
			} else {
				arms = alt(arms, arm)
			}
		}
		return seq(leaf(ops(extCallOps)), arms)
	case *ast.BranchStmt:
		if s.Tok == token.GOTO {
			// goto can build loops the structural walk cannot see.
			return w.widen(s.Pos(), "goto defeats structural cost composition")
		}
		return regSummary{} // break/continue only shorten paths
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt)
	case *ast.DeferStmt:
		// Charged at the defer site: an over-approximation of placement
		// (the call runs in the function's tail region at the latest).
		return w.expr(s.Call)
	case *ast.GoStmt:
		return w.expr(s.Call)
	case *ast.SendStmt:
		return seq(seq(w.expr(s.Chan), w.expr(s.Value)), leaf(ops(2)))
	default:
		return w.widen(s.Pos(), "unhandled statement %T", s)
	}
}

// caseClauses joins the arms of a switch body (an implicit empty arm
// models fallthrough-less misses).
func (w *rbWalker) caseClauses(body *ast.BlockStmt) regSummary {
	arms := regSummary{} // the no-case-taken path
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		arm := regSummary{}
		for _, e := range cc.List {
			arm = seq(arm, w.expr(e))
		}
		arm = seq(arm, w.stmts(cc.Body))
		arms = alt(arms, arm)
	}
	return arms
}

// forStmt prices a for loop: counted shapes multiply the body by the
// inferred trip count; everything else widens through loopSummary's
// unknown-count rules.
func (w *rbWalker) forStmt(s *ast.ForStmt) regSummary {
	init := w.stmt(s.Init)
	if w.depth >= maxLoopNest {
		return w.widen(s.Pos(), "loop nesting exceeds depth %d; trip-count product not taken", maxLoopNest)
	}
	w.depth++
	iter := seq(w.expr(s.Cond), seq(w.stmt(s.Body), w.stmt(s.Post)))
	w.depth--
	n, known := int64(-1), false
	if s.Cond == nil && !iter.must {
		// for {} without per-iteration preserves never terminates a
		// region: widen with a precise message.
		return seq(init, w.widen(s.Pos(), "unbounded for-loop with no preservation point per iteration"))
	}
	n, known = flow.TripCount(s, w.rf.pkg.Info)
	if !known {
		n = -1
	}
	ls, ok := loopSummary(iter, n)
	if !ok {
		return seq(init, w.widen(s.Pos(), "loop trip count is not a compile-time constant and the body does not preserve every iteration"))
	}
	// One extra condition evaluation on exit.
	return seq(init, seq(ls, w.expr(s.Cond)))
}

func (w *rbWalker) rangeStmt(s *ast.RangeStmt) regSummary {
	sum := w.expr(s.X)
	if w.depth >= maxLoopNest {
		return w.widen(s.Pos(), "loop nesting exceeds depth %d; trip-count product not taken", maxLoopNest)
	}
	w.depth++
	iter := seq(leaf(ops(1)), w.stmt(s.Body)) // per-iteration index/elem setup
	w.depth--
	n, known := flow.RangeTripCount(s, w.rf.pkg.Info)
	if !known {
		n = -1
	}
	ls, ok := loopSummary(iter, n)
	if !ok {
		return seq(sum, w.widen(s.Pos(), "range trip count is not statically known and the body does not preserve every iteration"))
	}
	return seq(sum, ls)
}

func (w *rbWalker) expr(e ast.Expr) regSummary {
	switch e := e.(type) {
	case nil, *ast.Ident, *ast.BasicLit, *ast.FuncLit:
		// A closure literal's body is charged where it is called; the
		// value itself is near-free (hotalloc polices the allocation).
		return regSummary{}
	case *ast.ParenExpr:
		return w.expr(e.X)
	case *ast.SelectorExpr:
		return w.expr(e.X)
	case *ast.StarExpr:
		return seq(w.expr(e.X), leaf(ops(1)))
	case *ast.UnaryExpr:
		return seq(w.expr(e.X), leaf(ops(1)))
	case *ast.BinaryExpr:
		return seq(seq(w.expr(e.X), w.expr(e.Y)), leaf(ops(1)))
	case *ast.IndexExpr:
		return seq(seq(w.expr(e.X), w.expr(e.Index)), leaf(ops(1)))
	case *ast.IndexListExpr:
		sum := w.expr(e.X)
		for _, ix := range e.Indices {
			sum = seq(sum, w.expr(ix))
		}
		return sum
	case *ast.SliceExpr:
		sum := w.expr(e.X)
		for _, ix := range []ast.Expr{e.Low, e.High, e.Max} {
			sum = seq(sum, w.expr(ix))
		}
		return seq(sum, leaf(ops(1)))
	case *ast.TypeAssertExpr:
		return seq(w.expr(e.X), leaf(ops(1)))
	case *ast.KeyValueExpr:
		return seq(w.expr(e.Key), w.expr(e.Value))
	case *ast.CompositeLit:
		sum := regSummary{}
		for _, el := range e.Elts {
			sum = seq(sum, w.expr(el))
		}
		return seq(sum, leaf(ops(int64(len(e.Elts)))))
	case *ast.CallExpr:
		return w.call(e)
	default:
		return regSummary{} // types and other non-evaluating nodes
	}
}

// call prices one call expression: argument evaluation, then the callee
// summary resolved through directives and the devirtualized call graph.
func (w *rbWalker) call(call *ast.CallExpr) regSummary {
	info := w.rf.pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion, not a call.
		sum := regSummary{}
		for _, a := range call.Args {
			sum = seq(sum, w.expr(a))
		}
		return seq(sum, leaf(ops(1)))
	}
	sum := regSummary{}
	for _, a := range call.Args {
		sum = seq(sum, w.expr(a))
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap":
				return seq(sum, leaf(ops(1)))
			default:
				return seq(sum, leaf(ops(extCallOps)))
			}
		}
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately invoked literal: inline its body at loop depth 0
		// semantics do not apply — it runs right here, once.
		return seq(sum, w.stmts(fl.Body.List))
	}
	callee := staticCallee(info, call)
	if callee == nil {
		return seq(sum, leaf(ops(extCallOps))) // indirect through a value
	}
	return seq(sum, w.callee(callee, call.Pos()))
}

// callee resolves one static callee to a summary.
func (w *rbWalker) callee(fn *types.Func, pos token.Pos) regSummary {
	ra := w.ra
	dirs := ra.mp.Dirs
	switch {
	case dirs.ObjHas(fn, "preserve"):
		// A commit primitive: the region boundary itself. Its body is
		// the two-phase commit machinery, priced as the boundary cost.
		return boundary(ops(extCallOps))
	case dirs.ObjHas(fn, "allow-budget"):
		// Audited boundary: the blessing vouches for the interior.
		return leaf(ops(extCallOps))
	}
	if dir, ok := dirs.ObjGet(fn, "budget"); ok {
		// A budget-annotated callee is an opaque unit priced at its
		// declared budget; its own compliance is checked at its
		// declaration.
		if b, err := energy.ParseBudget(dir.Reason); err == nil {
			n := b.Ops
			if n == 0 {
				n = int64(b.Joules / ra.model.CPUOpJ())
			}
			return leaf(ops(n))
		}
		return leaf(ops(extCallOps)) // malformed budget gets its own finding
	}
	if interfaceMethod(fn) {
		impls := ra.dv.resolve(fn)
		if len(impls) == 0 {
			return leaf(ops(extCallOps)) // unresolved: deliberately nominal
		}
		// Each implementation goes back through the directive checks: a
		// blessed or budget-annotated impl is a boundary on this path
		// exactly as it would be on a static call.
		sum := w.callee(impls[0], pos)
		for _, impl := range impls[1:] {
			sum = alt(sum, w.callee(impl, pos))
		}
		return sum
	}
	if _, ok := ra.decls[fn]; !ok {
		return leaf(ops(extCallOps)) // external body: nominal
	}
	return w.calleeSummary(fn, pos)
}

// calleeSummary inlines one summarized callee, re-anchoring any widening
// witness at this call site.
func (w *rbWalker) calleeSummary(fn *types.Func, pos token.Pos) regSummary {
	sum := w.ra.summary(fn)
	if sum.worst().top {
		cf := w.ra.decls[fn]
		why := "is statically unbounded"
		if cf != nil && cf.widenWhy != "" {
			why = cf.widenWhy
		}
		w.ra.note(w.rf, fn, pos, fmt.Sprintf("call to %s: %s", funcName(fn), why))
	}
	return seq(leaf(ops(1)), sum) // call/return overhead
}
