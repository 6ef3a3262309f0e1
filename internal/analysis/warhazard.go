package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"

	"iprune/internal/analysis/flow"
)

// WARHazard flags write-after-read (WAR) hazards on //iprune:nvm state
// between preservation points. The progress-preservation argument
// (HAWAII⁺, and Alpaca-style idempotence analysis for intermittent
// programs generally) requires that everything between two commits be
// safe to re-execute after a power failure. A nonvolatile location that
// is *read and then overwritten* inside one preservation interval breaks
// that: re-execution reads the overwritten value and computes a
// different result than the first attempt — work is silently corrupted
// rather than resumed.
//
// The analyzer builds a per-function CFG (internal/analysis/flow) and
// runs a forward dataflow whose fact tracks, for each NVM location,
// whether its *first access since the last preservation point* was a
// read. A write to a read-first location is a finding; a call to a
// function marked //iprune:preserve ends the interval (the commit makes
// everything before it durable, so re-execution restarts after it). A
// location whose first access is a write is safe to rewrite —
// deterministic re-execution just repeats the store — which is exactly
// Alpaca's WAR criterion.
//
// Precision features beyond the plain lattice:
//
//   - Constant-index sub-locations: an NVM array field indexed by a
//     constant (partial[0] vs partial[1]) splits into disjoint
//     locations, so the ping-pong parity pattern — read one buffer,
//     write the other — is proved safe instead of suppressed. A
//     non-constant index falls back to the whole location and joins
//     conservatively with every sub-location.
//
//   - Path-sensitive boolean guards: the dataflow state is a bounded
//     disjunction of per-path facts, each carrying the known values of
//     simple boolean guard locals (`if committed { … }`). Branch edges
//     assert the guard's outcome and drop contradicting states, so a
//     read under `if fresh` and a write under `if !fresh` are seen to
//     lie on disjoint paths.
//
// Local variables derived from NVM state (`dst := e.nvm.buf[i]`) are
// tracked flow-insensitively: a write through such an alias is a write
// to the underlying NVM location. Functions marked //iprune:preserve
// are themselves exempt — they are the audited two-phase commit
// internals, which necessarily look like WARs. Sites opt out with
// //iprune:allow-war <reason>.
var WARHazard = &Analyzer{
	Name:  "warhazard",
	Doc:   "no write-after-read on NVM state between preservation points",
	Allow: "allow-war",
	Scope: func(path string) bool { return true },
	Run:   runWARHazard,
}

func runWARHazard(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.FuncHas(fd, "preserve") {
				continue // the commit primitive itself
			}
			wf := &warFunc{
				pass:     pass,
				derived:  map[types.Object]warKey{},
				display:  map[warKey]string{},
				guards:   map[types.Object]bool{},
				reported: map[token.Pos]bool{},
			}
			wf.collectDerived(fd.Body)
			wf.collectGuards(fd.Body)
			wf.analyze(fd.Body)
		}
	}
}

// wholeLoc is the index of an unrefined NVM location: the whole value,
// or an element selected by a non-constant index.
const wholeLoc = -1

// maxPathStates bounds the disjunction width of the path-sensitive
// state; beyond it, incoming states merge into the first state with
// their guard environments intersected (sound, less precise).
const maxPathStates = 8

// warKey identifies one NVM location: the field or type object plus a
// constant-index refinement for array-typed fields (idx == wholeLoc
// when the whole location is meant).
type warKey struct {
	obj types.Object
	idx int
}

// overlaps reports whether two keys may denote overlapping storage.
func (k warKey) overlaps(o warKey) bool {
	return k.obj == o.obj && (k.idx == wholeLoc || o.idx == wholeLoc || k.idx == o.idx)
}

// warAccess is the per-location dataflow fact: was the first access in
// the current preservation interval a read (and where)?
type warAccess struct {
	readFirst bool
	pos       token.Pos // position of the first read, for the diagnostic
}

// warFact maps an NVM location to its first-access state. Absent means
// untouched this interval.
type warFact map[warKey]warAccess

// pathFact is the dataflow fact along one boolean-guard valuation: the
// guard locals whose value is known on this path, and the per-location
// first-access state under that assumption.
type pathFact struct {
	env map[types.Object]bool
	acc warFact
}

func (p *pathFact) clone() *pathFact {
	cp := &pathFact{
		env: make(map[types.Object]bool, len(p.env)),
		acc: make(warFact, len(p.acc)),
	}
	for k, v := range p.env {
		cp.env[k] = v
	}
	for k, v := range p.acc {
		cp.acc[k] = v
	}
	return cp
}

// warState is the disjunctive dataflow state: one pathFact per
// distinguishable guard valuation, bounded by maxPathStates. nil is the
// solver's bottom (block not yet reached on any path).
type warState []*pathFact

// warFunc analyzes one function body.
type warFunc struct {
	pass     *Pass
	derived  map[types.Object]warKey // local var -> NVM location it aliases
	display  map[warKey]string       // location -> human name
	guards   map[types.Object]bool   // boolean locals trackable as path guards
	reported map[token.Pos]bool      // write sites already diagnosed (dedupe across path states)
}

// collectDerived finds locals that alias NVM state: simple assignments
// or declarations whose right-hand side resolves to an NVM location
// (possibly through another derived local), iterated to a fixpoint so
// chains resolve regardless of order. Only reference types (slices,
// pointers, maps) alias — writing through them mutates the NVM backing
// store; a scalar binding is a value copy, i.e. just a read.
// Flow-insensitive by design: a variable that ever aliases NVM is
// treated as aliasing it everywhere.
func (w *warFunc) collectDerived(body *ast.BlockStmt) {
	bind := func(lhs, rhs ast.Expr) bool {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return false
		}
		obj := w.pass.Info.Defs[id]
		if obj == nil {
			obj = w.pass.Info.Uses[id]
		}
		if obj == nil || !referenceType(obj.Type()) {
			return false
		}
		if _, done := w.derived[obj]; done {
			return false
		}
		if key, disp, ok := w.nvmRef(rhs); ok {
			w.derived[obj] = key
			if _, ok := w.display[key]; !ok {
				w.display[key] = disp
			}
			return true
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						if bind(n.Lhs[i], n.Rhs[i]) {
							changed = true
						}
					}
				}
			case *ast.DeclStmt:
				if gd, ok := n.Decl.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == len(vs.Values) {
							for i := range vs.Names {
								if bind(vs.Names[i], vs.Values[i]) {
									changed = true
								}
							}
						}
					}
				}
			}
			return true
		})
	}
}

// collectGuards finds the boolean locals usable as path guards: plain
// identifiers appearing as (possibly negated) if/for conditions whose
// value assignments the analysis can observe. A guard whose address is
// taken or that is assigned inside a function literal escapes the
// per-path tracking and is dropped.
func (w *warFunc) collectGuards(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			w.guardCandidate(n.Cond)
		case *ast.ForStmt:
			if n.Cond != nil {
				w.guardCandidate(n.Cond)
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if obj := w.identObj(n.X); obj != nil {
					delete(w.guards, obj)
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if as, ok := m.(*ast.AssignStmt); ok {
					for _, lhs := range as.Lhs {
						if obj := w.identObj(lhs); obj != nil {
							delete(w.guards, obj)
						}
					}
				}
				return true
			})
		}
		return true
	})
}

// guardCandidate registers cond's guard variable, if cond is a plain
// (possibly !-negated) boolean identifier.
func (w *warFunc) guardCandidate(cond ast.Expr) {
	if obj, _, ok := w.guardCond(cond); ok {
		w.guards[obj] = true
	}
}

// guardCond decomposes a branch condition into (guard object, value the
// condition asserts when true). Only `b` and `!b` forms qualify.
func (w *warFunc) guardCond(cond ast.Expr) (types.Object, bool, bool) {
	e := ast.Unparen(cond)
	val := true
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		e = ast.Unparen(u.X)
		val = false
	}
	obj := w.identObj(e)
	if obj == nil {
		return nil, false, false
	}
	if v, ok := obj.(*types.Var); !ok || v.IsField() {
		return nil, false, false
	}
	if b, ok := obj.Type().Underlying().(*types.Basic); !ok || b.Info()&types.IsBoolean == 0 {
		return nil, false, false
	}
	return obj, val, true
}

func (w *warFunc) identObj(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := w.pass.Info.Uses[id]
	if obj == nil {
		obj = w.pass.Info.Defs[id]
	}
	return obj
}

// analyze runs the path-sensitive dataflow over the function body and
// then replays each block against its fixed entry state to emit
// diagnostics exactly once.
func (w *warFunc) analyze(body *ast.BlockStmt) {
	g := w.pass.funcs.cfg(body)
	facts := flow.ForwardEdges(g,
		warState{&pathFact{env: map[types.Object]bool{}, acc: warFact{}}},
		func() warState { return nil },
		w.join, w.transfer, w.refine)
	for _, b := range g.Blocks {
		states := make(warState, 0, len(facts[b]))
		for _, s := range facts[b] {
			states = append(states, s.clone())
		}
		for _, n := range b.Nodes {
			for _, s := range states {
				w.node(n, s, true)
			}
		}
	}
}

// join folds a predecessor's exit states into a block's entry states:
// a state with an already-seen guard environment merges its access
// facts into that state; a new environment appends a new state until
// the width bound, beyond which it merges into the first state with
// environments intersected.
func (w *warFunc) join(dst, src warState) (warState, bool) {
	if src == nil {
		return dst, false
	}
	changed := false
	for _, s := range src {
		var match *pathFact
		for _, d := range dst {
			if envEqual(d.env, s.env) {
				match = d
				break
			}
		}
		switch {
		case match != nil:
			if accJoin(match.acc, s.acc) {
				changed = true
			}
		case len(dst) < maxPathStates:
			dst = append(dst, s.clone())
			changed = true
		default:
			d := dst[0]
			for k, v := range d.env {
				if sv, ok := s.env[k]; !ok || sv != v {
					delete(d.env, k)
					changed = true
				}
			}
			if accJoin(d.acc, s.acc) {
				changed = true
			}
		}
	}
	return dst, changed
}

func envEqual(a, b map[types.Object]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// accJoin merges src's access facts into dst with the interval
// semantics: read-first survives a merge with an untouched path (the
// merged path may still read first), written-first survives only when
// written on both paths.
func accJoin(dst, src warFact) bool {
	changed := false
	for key, acc := range src {
		old, ok := dst[key]
		switch {
		case !ok:
			// Untouched on the dst path: the merge may still read first,
			// so src's state only survives if it is the hazardous one.
			if acc.readFirst {
				dst[key] = acc
				changed = true
			}
		case old.readFirst:
			if acc.readFirst && acc.pos < old.pos {
				dst[key] = acc
				changed = true
			}
		case acc.readFirst:
			dst[key] = acc
			changed = true
		}
	}
	// written-first on dst but absent on src: the src path can still
	// read first later, so written-first must not survive the merge.
	for key, acc := range dst {
		if !acc.readFirst {
			if _, ok := src[key]; !ok {
				delete(dst, key)
				changed = true
			}
		}
	}
	return changed
}

// transfer interprets a block's nodes over every path state.
func (w *warFunc) transfer(b *flow.Block, in warState) warState {
	out := make(warState, 0, len(in))
	for _, s := range in {
		out = append(out, s.clone())
	}
	for _, n := range b.Nodes {
		for _, s := range out {
			w.node(n, s, false)
		}
	}
	return out
}

// refine specializes a block's exit states to the branch edge being
// taken: when the block ends in a recognizable guard condition, states
// contradicting the edge's outcome are infeasible and dropped, and the
// surviving states record the asserted value.
func (w *warFunc) refine(from, to *flow.Block, out warState) (warState, bool) {
	br := from.Branch
	if br == nil {
		return out, true
	}
	obj, condVal, ok := w.guardCond(br.Cond)
	if !ok || !w.guards[obj] {
		return out, true
	}
	var want bool
	switch to {
	case br.True:
		want = condVal
	case br.False:
		want = !condVal
	default:
		return out, true
	}
	var kept warState
	for _, s := range out {
		if known, ok := s.env[obj]; ok && known != want {
			continue // this path's guard value contradicts the edge
		}
		cp := s.clone()
		cp.env[obj] = want
		kept = append(kept, cp)
	}
	if len(kept) == 0 {
		return nil, false
	}
	return kept, true
}

// node interprets one CFG node, updating the path state and (when
// report is set) emitting diagnostics for hazardous writes.
func (w *warFunc) node(n ast.Node, pf *pathFact, report bool) {
	st := pf.acc
	switch n := n.(type) {
	case *ast.AssignStmt:
		compound := n.Tok != token.ASSIGN && n.Tok != token.DEFINE
		if !compound && len(n.Lhs) == len(n.Rhs) {
			// Pairwise: an alias binding (dst := e.nvm.buf[k]) copies a
			// slice header or address, not the data a later write will
			// overwrite — re-binding on re-execution is idempotent — so
			// it does not count as a read of the location. Its index
			// sub-expressions are still real reads.
			for i := range n.Rhs {
				if w.aliasBinding(n.Lhs[i], n.Rhs[i]) {
					w.indexReads(n.Rhs[i], st)
				} else {
					w.reads(n.Rhs[i], st)
				}
			}
		} else {
			for _, rhs := range n.Rhs {
				w.reads(rhs, st)
			}
		}
		for _, lhs := range n.Lhs {
			if compound {
				w.reads(lhs, st) // x += v reads x first
			}
			w.writeTarget(lhs, st, report)
		}
		w.updateGuards(n, pf)
	case *ast.IncDecStmt:
		w.reads(n.X, st)
		w.writeTarget(n.X, st, report)
	case *ast.ExprStmt:
		w.reads(n.X, st)
	case *ast.SendStmt:
		w.reads(n.Chan, st)
		w.reads(n.Value, st)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			w.reads(r, st)
		}
	case *ast.DeferStmt:
		// Argument evaluation happens here; the deferred call itself
		// runs at return and is not a preservation point on this path.
		w.readsCallArgs(n.Call, st)
	case *ast.GoStmt:
		w.readsCallArgs(n.Call, st)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.reads(v, st)
					}
					for _, name := range vs.Names {
						if obj := w.pass.Info.Defs[name]; obj != nil && w.guards[obj] {
							w.setGuard(pf, obj, vs.Values, indexOf(vs.Names, name))
						}
					}
				}
			}
		}
	case *ast.RangeStmt:
		// Stands for the per-iteration key/value binding (flow.Build);
		// X was consumed in a predecessor block.
		if n.Key != nil {
			w.writeTarget(n.Key, st, report)
			if obj := w.identObj(n.Key); obj != nil {
				delete(pf.env, obj)
			}
		}
		if n.Value != nil {
			w.writeTarget(n.Value, st, report)
			if obj := w.identObj(n.Value); obj != nil {
				delete(pf.env, obj)
			}
		}
	case ast.Expr:
		w.reads(n, st)
	}
}

// updateGuards tracks assignments to guard locals: a constant boolean
// right-hand side pins the guard's value on this path, anything else
// invalidates it.
func (w *warFunc) updateGuards(n *ast.AssignStmt, pf *pathFact) {
	for i, lhs := range n.Lhs {
		obj := w.identObj(lhs)
		if obj == nil || !w.guards[obj] {
			continue
		}
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
			delete(pf.env, obj) // compound ops do not apply to bools anyway
			continue
		}
		if len(n.Lhs) == len(n.Rhs) {
			if v, ok := boolConst(w.pass.Info, n.Rhs[i]); ok {
				pf.env[obj] = v
				continue
			}
		}
		delete(pf.env, obj)
	}
}

// setGuard pins a guard declared with a constant initializer (var
// declarations route here; := assignments go through updateGuards).
func (w *warFunc) setGuard(pf *pathFact, obj types.Object, values []ast.Expr, i int) {
	if i >= 0 && i < len(values) {
		if v, ok := boolConst(w.pass.Info, values[i]); ok {
			pf.env[obj] = v
			return
		}
	}
	if len(values) == 0 {
		pf.env[obj] = false // zero value
		return
	}
	delete(pf.env, obj)
}

func indexOf(names []*ast.Ident, name *ast.Ident) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// boolConst evaluates e as a compile-time boolean constant.
func boolConst(info *types.Info, e ast.Expr) (bool, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Bool {
		return false, false
	}
	return constant.BoolVal(tv.Value), true
}

// intConst evaluates e as a compile-time non-negative integer constant.
func intConst(info *types.Info, e ast.Expr) (int, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, exact := constant.Int64Val(tv.Value)
	if !exact || v < 0 {
		return 0, false
	}
	return int(v), true
}

// reads records every NVM read inside the expression and handles calls:
// arguments are read, and a call to a //iprune:preserve function ends
// the interval. Function-literal bodies are skipped — they execute when
// called, and the analyzer treats closures conservatively (their NVM
// accesses are out of this function's interval tracking).
func (w *warFunc) reads(e ast.Expr, st warFact) {
	switch x := e.(type) {
	case nil:
	case *ast.ParenExpr:
		w.reads(x.X, st)
	case *ast.StarExpr:
		w.reads(x.X, st)
	case *ast.UnaryExpr:
		w.reads(x.X, st)
	case *ast.BinaryExpr:
		w.reads(x.X, st)
		w.reads(x.Y, st)
	case *ast.KeyValueExpr:
		w.reads(x.Key, st)
		w.reads(x.Value, st)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			w.reads(el, st)
		}
	case *ast.TypeAssertExpr:
		w.reads(x.X, st)
	case *ast.FuncLit:
		// skip: see doc comment
	case *ast.CallExpr:
		w.readsCallArgs(x, st)
		if fn := staticCallee(w.pass.Info, x); fn != nil && w.pass.Dirs.ObjHas(fn, "preserve") {
			// Preservation point: everything before it is durable.
			for k := range st {
				delete(st, k)
			}
		}
	case *ast.SliceExpr:
		if key, disp, ok := w.nvmRef(x); ok {
			w.read(key, disp, x.Pos(), st)
		} else {
			w.reads(x.X, st)
		}
		w.reads(x.Low, st)
		w.reads(x.High, st)
		w.reads(x.Max, st)
	case *ast.IndexExpr:
		if key, disp, ok := w.nvmRef(x); ok {
			w.read(key, disp, x.Pos(), st)
		} else {
			w.reads(x.X, st)
		}
		w.reads(x.Index, st)
	case *ast.SelectorExpr:
		if key, disp, ok := w.nvmRef(x); ok {
			w.read(key, disp, x.Pos(), st)
			return
		}
		w.reads(x.X, st)
	case *ast.Ident:
		if key, disp, ok := w.nvmRef(x); ok {
			w.read(key, disp, x.Pos(), st)
		}
	}
}

func (w *warFunc) readsCallArgs(call *ast.CallExpr, st warFact) {
	// A method receiver read (e.nvm.buf.Len()) counts too.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.reads(sel.X, st)
	}
	for _, a := range call.Args {
		w.reads(a, st)
	}
}

// aliasBinding reports whether lhs is a local the derived-alias pass
// bound to exactly the NVM location rhs denotes.
func (w *warFunc) aliasBinding(lhs, rhs ast.Expr) bool {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := w.pass.Info.Defs[id]
	if obj == nil {
		obj = w.pass.Info.Uses[id]
	}
	if obj == nil {
		return false
	}
	key, bound := w.derived[obj]
	if !bound {
		return false
	}
	rkey, _, ok := w.nvmRef(rhs)
	return ok && rkey == key
}

// read records a first access being a read. A location already written
// this interval stays written-first: re-execution deterministically
// repeats the store before the read, so the read is consistent — and a
// whole-location write covers every constant-index sub-location.
// Reading a whole marked struct reads every field.
func (w *warFunc) read(key warKey, disp string, pos token.Pos, st warFact) {
	if _, ok := st[key]; !ok {
		covered := false
		if key.idx != wholeLoc {
			if acc, ok := st[warKey{obj: key.obj, idx: wholeLoc}]; ok && !acc.readFirst {
				covered = true
			}
		}
		if !covered {
			st[key] = warAccess{readFirst: true, pos: pos}
			w.display[key] = disp
		}
	}
	if named := asNamed(key.obj.Type()); named != nil && w.pass.Dirs.ObjHas(named.Obj(), "nvm") {
		if s, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < s.NumFields(); i++ {
				fk := warKey{obj: s.Field(i), idx: wholeLoc}
				if _, ok := st[fk]; !ok {
					st[fk] = warAccess{readFirst: true, pos: pos}
					w.display[fk] = named.Obj().Name() + "." + s.Field(i).Name()
				}
			}
		}
	}
}

// writeTarget resolves an assignment target; an NVM write to a
// location whose first access overlaps a read is the hazard. Assigning
// to a derived local *itself* (dst = ..., not dst[i] = ...) only
// replaces the local's header — the NVM backing store is untouched.
func (w *warFunc) writeTarget(e ast.Expr, st warFact, report bool) {
	if id, ok := e.(*ast.Ident); ok {
		obj := w.pass.Info.Defs[id]
		if obj == nil {
			obj = w.pass.Info.Uses[id]
		}
		if obj != nil {
			if _, isAlias := w.derived[obj]; isAlias {
				return
			}
		}
	}
	key, disp, ok := w.nvmRef(e)
	if !ok {
		// Index/slice sub-expressions of a non-NVM target may still
		// read NVM (a[nvm.idx] = v); nvmRef's unwrap loop covers the
		// NVM case below, so only scan here.
		w.indexReads(e, st)
		return
	}
	w.indexReads(e, st)
	// The hazard: any overlapping location read first this interval.
	hazard := warAccess{}
	for k, acc := range st {
		if acc.readFirst && k.overlaps(key) {
			if !hazard.readFirst || acc.pos < hazard.pos {
				hazard = acc
			}
		}
	}
	if hazard.readFirst {
		if report && !w.reported[e.Pos()] {
			w.reported[e.Pos()] = true
			w.pass.Reportf(e.Pos(),
				"WAR hazard on NVM-backed %s: written after a read at line %d with no preservation point between (re-execution after a power failure would observe the new value; commit through an //iprune:preserve function or annotate //iprune:allow-war)",
				disp, w.pass.Fset.Position(hazard.pos).Line)
		}
		// Downgrade the overlapping locations to written-first: one
		// report per interval per site.
		for k, acc := range st {
			if acc.readFirst && k.overlaps(key) {
				st[k] = warAccess{}
			}
		}
		st[key] = warAccess{}
		w.display[key] = disp
		return
	}
	if _, hit := st[key]; !hit {
		st[key] = warAccess{} // written-first: safe to re-execute
		w.display[key] = disp
	}
	// Writing a whole marked struct makes every field written-first.
	if named := asNamed(key.obj.Type()); named != nil && w.pass.Dirs.ObjHas(named.Obj(), "nvm") {
		if s, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < s.NumFields(); i++ {
				fk := warKey{obj: s.Field(i), idx: wholeLoc}
				if _, hit := st[fk]; !hit {
					st[fk] = warAccess{}
					w.display[fk] = named.Obj().Name() + "." + s.Field(i).Name()
				}
			}
		}
	}
}

// indexReads scans the index/slice sub-expressions along an assignment
// target's access path for NVM reads (the target itself is the write).
func (w *warFunc) indexReads(e ast.Expr, st warFact) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			w.reads(x.Index, st)
			e = x.X
		case *ast.SliceExpr:
			w.reads(x.Low, st)
			w.reads(x.High, st)
			w.reads(x.Max, st)
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return
		}
	}
}

// nvmRef resolves an expression to the NVM location it denotes: a field
// marked //iprune:nvm, any field of a type marked //iprune:nvm, a whole
// value of a marked type, or a local variable derived from one
// (collectDerived). A constant index into an array-typed NVM location
// refines it into a disjoint sub-location (partial[0] vs partial[1]);
// any other index denotes the whole location. Returns the identifying
// key and a display name.
func (w *warFunc) nvmRef(e ast.Expr) (warKey, string, bool) {
	p := w.pass
	switch x := e.(type) {
	case *ast.ParenExpr:
		return w.nvmRef(x.X)
	case *ast.StarExpr:
		return w.nvmRef(x.X)
	case *ast.SliceExpr:
		return w.nvmRef(x.X)
	case *ast.IndexExpr:
		key, disp, ok := w.nvmRef(x.X)
		if !ok {
			return warKey{}, "", false
		}
		if key.idx == wholeLoc {
			if t := p.Info.Types[x.X].Type; t != nil {
				if _, isArr := t.Underlying().(*types.Array); isArr {
					if c, okc := intConst(p.Info, x.Index); okc {
						return warKey{obj: key.obj, idx: c}, disp + "[" + strconv.Itoa(c) + "]", true
					}
				}
			}
		}
		return key, disp, true
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[x]; ok {
			if obj := sel.Obj(); obj != nil && p.Dirs.ObjHas(obj, "nvm") {
				return warKey{obj: obj, idx: wholeLoc}, obj.Name(), true
			}
			if named := asNamed(sel.Recv()); named != nil && p.Dirs.ObjHas(named.Obj(), "nvm") {
				if obj := sel.Obj(); obj != nil {
					return warKey{obj: obj, idx: wholeLoc}, named.Obj().Name() + "." + x.Sel.Name, true
				}
			}
		}
		if named := asNamed(p.Info.Types[x].Type); named != nil && p.Dirs.ObjHas(named.Obj(), "nvm") {
			if obj, ok := selectionObj(p, x); ok {
				return warKey{obj: obj, idx: wholeLoc}, named.Obj().Name(), true
			}
			return warKey{obj: named.Obj(), idx: wholeLoc}, named.Obj().Name(), true
		}
		return w.nvmRef(x.X)
	case *ast.Ident:
		obj := p.Info.Uses[x]
		if obj == nil {
			obj = p.Info.Defs[x]
		}
		if obj != nil {
			if key, ok := w.derived[obj]; ok {
				return key, w.display[key] + " (via " + x.Name + ")", true
			}
			if p.Dirs.ObjHas(obj, "nvm") {
				return warKey{obj: obj, idx: wholeLoc}, obj.Name(), true
			}
		}
		if named := asNamed(p.Info.Types[x].Type); named != nil && p.Dirs.ObjHas(named.Obj(), "nvm") {
			if obj != nil {
				return warKey{obj: obj, idx: wholeLoc}, named.Obj().Name() + " " + x.Name, true
			}
			return warKey{obj: named.Obj(), idx: wholeLoc}, named.Obj().Name(), true
		}
		return warKey{}, "", false
	default:
		return warKey{}, "", false
	}
}

// selectionObj returns the field object a selector denotes, if any.
func selectionObj(p *Pass, x *ast.SelectorExpr) (types.Object, bool) {
	if sel, ok := p.Info.Selections[x]; ok && sel.Obj() != nil {
		return sel.Obj(), true
	}
	return nil, false
}

// referenceType reports whether writes through a value of t reach
// shared backing storage.
func referenceType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map:
		return true
	}
	return false
}

// asNamed unwraps pointers to a named type.
func asNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// staticCallee resolves a call expression's target function when it is
// a plain function or method reference.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
