package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"iprune/internal/analysis/flow"
)

// LockOrder proves the module's mutexes are acquired in one consistent
// global order — the classic static deadlock-freedom argument. The
// parallel phase shards hot paths across goroutines, and two goroutines
// acquiring the same pair of locks in opposite orders can each hold one
// lock while waiting forever for the other; no test run is guaranteed
// to hit the interleaving, so the proof has to be static.
//
// The analysis computes, at every acquisition site, the set of locks
// already held (a lock-set dataflow over the flow CFG: Lock/RLock adds
// a lock, Unlock/RUnlock removes it, a deferred unlock keeps the lock
// held to function exit). Each "A held while acquiring B" observation
// becomes an order edge A→B; acquisitions are propagated
// interprocedurally over the devirtualized call graph, so a call made
// with A held contributes edges to every lock the callee transitively
// acquires, with a floatflow-style witness chain naming the path.
// Two findings result:
//
//   - an inversion: both A→B and B→A observed anywhere in the module
//     (reported at each site, citing the opposing site);
//   - a re-acquisition: taking a lock the function provably already
//     holds (sync.Mutex is not reentrant — this self-deadlocks on the
//     spot). Re-acquisition uses the must-held set, so a lock merely
//     held on *some* paths is not a false positive.
//
// Lock identity is the declared object: a struct *field* of type
// sync.Mutex/RWMutex identifies a lock class (every instance of the
// struct orders the same way), a package-level or local variable
// identifies itself. Calls through sync.Locker and TryLock are skipped
// — the first is dynamic, the second cannot block.
//
// Sites opt out with //iprune:allow-conc <reason>.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "mutexes are acquired in one consistent global order (potential-deadlock detection)",
	Allow:     "allow-conc",
	Scope:     func(path string) bool { return true },
	RunModule: runLockOrder,
}

// lockSets is the dataflow fact: the may-held set (union join — drives
// order edges, conservatively) and the must-held set (intersection join
// — drives re-acquisition reports, precisely). The zero value, with nil
// sets, is the entry fact of a block no path has reached yet.
type lockSets struct {
	may  map[types.Object]bool
	must map[types.Object]bool
}

func (ls lockSets) clone() lockSets {
	c := lockSets{may: make(map[types.Object]bool, len(ls.may)), must: make(map[types.Object]bool, len(ls.must))}
	for k := range ls.may {
		c.may[k] = true
	}
	for k := range ls.must {
		c.must[k] = true
	}
	return c
}

// acqSite is one Lock/RLock call with the lock sets in force just
// before it.
type acqSite struct {
	lock types.Object
	pos  token.Pos
	held lockSets
}

// callSite is one static call edge with the may-held set at the call.
type callSite struct {
	callee *types.Func
	via    *types.Func // interface method the edge was devirtualized from
	pos    token.Pos
	may    map[types.Object]bool
}

// lockFunc is the per-function lockorder summary.
type lockFunc struct {
	*funcSummary

	acquires []acqSite
	calls    []callSite

	// closure: every lock this function transitively acquires, with the
	// call path (excluding this function) to a witness acquisition.
	reach map[types.Object][]*types.Func
}

// orderEdge is one observed "from held while acquiring to" pair.
type orderEdge struct {
	from, to types.Object
}

// orderWitness records where and how one order edge was observed.
type orderWitness struct {
	pkg  *Package
	pos  token.Pos
	fn   *types.Func   // function the observation is rooted in
	path []*types.Func // call chain from fn to the acquiring function (empty = direct)
}

func runLockOrder(mp *ModulePass) {
	t := mp.table()
	order := make([]*lockFunc, 0, len(t.funcs))
	index := make(map[*types.Func]*lockFunc, len(t.funcs))
	for _, s := range t.funcs {
		lf := &lockFunc{funcSummary: s}
		lf.analyze(t)
		order = append(order, lf)
		index[s.fn] = lf
	}
	closeLockReach(order, index)

	// Collect order edges across the module, keeping the first witness
	// per edge (function order is deterministic, sites are in source
	// order, so witnesses are stable).
	edges := map[orderEdge]orderWitness{}
	note := func(e orderEdge, w orderWitness) {
		if _, ok := edges[e]; !ok {
			edges[e] = w
		}
	}
	for _, lf := range order {
		for _, a := range lf.acquires {
			// Re-acquisition: the must-held set already contains the lock.
			if a.held.must[a.lock] {
				mp.Pass(lf.pkg).Reportf(a.pos,
					"lock %s acquired while already held by %s: sync mutexes are not reentrant, this deadlocks immediately (restructure, or annotate //iprune:allow-conc)",
					refName(a.lock), funcName(lf.fn))
			}
			for held := range a.held.may {
				if held == a.lock {
					continue
				}
				note(orderEdge{from: held, to: a.lock},
					orderWitness{pkg: lf.pkg, pos: a.pos, fn: lf.fn})
			}
		}
		for _, c := range lf.calls {
			callee, ok := index[c.callee]
			if !ok {
				continue
			}
			for acquired, path := range callee.reach {
				for held := range c.may {
					if held == acquired {
						continue
					}
					note(orderEdge{from: held, to: acquired},
						orderWitness{pkg: lf.pkg, pos: c.pos, fn: lf.fn,
							path: append([]*types.Func{c.callee}, path...)})
				}
			}
		}
	}

	// Report every edge whose reverse also exists — an inconsistent
	// pairwise order is a potential deadlock. Sorted for determinism.
	var inverted []orderEdge
	for e := range edges {
		if _, ok := edges[orderEdge{from: e.to, to: e.from}]; ok {
			inverted = append(inverted, e)
		}
	}
	sort.Slice(inverted, func(i, j int) bool {
		a, b := inverted[i], inverted[j]
		if refName(a.from) != refName(b.from) {
			return refName(a.from) < refName(b.from)
		}
		return refName(a.to) < refName(b.to)
	})
	for _, e := range inverted {
		w := edges[e]
		rev := edges[orderEdge{from: e.to, to: e.from}]
		mp.Pass(w.pkg).Reportf(w.pos,
			"lock order inversion: %s is acquired%s while %s is held, but %s acquires %s while %s is held at %s: two goroutines interleaving these paths deadlock (pick one global order, or annotate //iprune:allow-conc)",
			refName(e.to), lockPathSuffix(w.path), refName(e.from),
			funcName(rev.fn), refName(e.from), refName(e.to),
			rev.pkg.Fset.Position(rev.pos))
	}
}

// closeLockReach closes each function's acquired-lock set under the
// call graph, recording one witness path per lock. Iteration order is
// fixed so paths are deterministic.
func closeLockReach(order []*lockFunc, index map[*types.Func]*lockFunc) {
	for _, lf := range order {
		lf.reach = map[types.Object][]*types.Func{}
		for _, a := range lf.acquires {
			if _, ok := lf.reach[a.lock]; !ok {
				lf.reach[a.lock] = nil
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, lf := range order {
			for _, c := range lf.calls {
				callee, ok := index[c.callee]
				if !ok {
					continue
				}
				for lock, path := range callee.reach {
					if _, ok := lf.reach[lock]; ok {
						continue
					}
					lf.reach[lock] = append([]*types.Func{c.callee}, path...)
					changed = true
				}
			}
		}
	}
}

// analyze runs the lock-set dataflow over one function body and records
// acquisition and call sites with their entry lock sets.
func (lf *lockFunc) analyze(t *funcTable) {
	g := t.cfg(lf.decl.Body)
	entry := flow.Forward(g,
		lockSets{may: map[types.Object]bool{}, must: map[types.Object]bool{}},
		func() lockSets { return lockSets{} },
		joinLockSets,
		func(b *flow.Block, in lockSets) lockSets {
			out := in.clone()
			for _, n := range b.Nodes {
				lf.transfer(n, &out, false)
			}
			return out
		})

	// Replay each block once against its fixed entry state to record
	// sites exactly once, in block/source order.
	for _, b := range g.Blocks {
		st := entry[b]
		if st.may == nil {
			continue // no path reaches the block
		}
		for _, n := range b.Nodes {
			lf.transfer(n, &st, true)
		}
	}
	lf.resolveCalls(t.dv)
}

// joinLockSets merges src into dst (may ∪, must ∩); reports change. The
// first fact to reach a block is copied whole.
func joinLockSets(dst, src lockSets) (lockSets, bool) {
	if dst.may == nil {
		return src.clone(), true
	}
	changed := unionInto(dst.may, src.may)
	for k := range dst.must {
		if !src.must[k] {
			delete(dst.must, k)
			changed = true
		}
	}
	return dst, changed
}

// transfer interprets one CFG node: lock operations update the sets, and
// when record is set, acquisition and call sites are captured with the
// state in force just before them. Function literals are skipped — their
// bodies run on another goroutine or at defer time with their own lock
// discipline.
func (lf *lockFunc) transfer(n ast.Node, st *lockSets, record bool) {
	pkg := lf.pkg
	switch n.(type) {
	case *ast.RangeStmt:
		return // per-iteration binding only; the body has its own blocks
	case *ast.DeferStmt:
		// A deferred unlock runs at function exit: the lock stays held
		// for the rest of the function, which is exactly what not
		// interpreting the call models. Deferred locks are ignored too.
		return
	case *ast.GoStmt:
		// The spawned goroutine starts with an empty lock set — it does
		// not inherit the spawner's held locks, so its acquisitions
		// impose no order edge here. Its own body is analyzed when the
		// called function's declaration is.
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(pkg.Info, call)
		if fn == nil {
			return true
		}
		if kind := lockMethodKind(fn); kind != lockNone {
			lock, ok := lockReceiver(pkg, call)
			if !ok {
				return true
			}
			switch kind {
			case lockAcquire:
				if record {
					lf.acquires = append(lf.acquires, acqSite{lock: lock, pos: call.Pos(), held: st.clone()})
				}
				st.may[lock] = true
				st.must[lock] = true
			case lockRelease:
				delete(st.may, lock)
				delete(st.must, lock)
			}
			return true
		}
		if record && fn.Pkg() != nil && !interfaceMethod(fn) {
			if len(st.may) > 0 {
				lf.calls = append(lf.calls, callSite{callee: fn, pos: call.Pos(), may: cloneSet(st.may)})
			}
		} else if record && interfaceMethod(fn) && len(st.may) > 0 {
			lf.calls = append(lf.calls, callSite{callee: nil, via: fn, pos: call.Pos(), may: cloneSet(st.may)})
		}
		return true
	})
}

// resolveCalls devirtualizes the interface-method call sites recorded by
// transfer into concrete callees (one callSite per implementation).
func (lf *lockFunc) resolveCalls(dv *devirtualizer) {
	resolved := lf.calls[:0]
	for _, c := range lf.calls {
		if c.callee != nil {
			resolved = append(resolved, c)
			continue
		}
		for _, impl := range dv.resolve(c.via) {
			resolved = append(resolved, callSite{callee: impl, via: c.via, pos: c.pos, may: c.may})
		}
	}
	lf.calls = resolved
}

func cloneSet(s map[types.Object]bool) map[types.Object]bool {
	c := make(map[types.Object]bool, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// unionInto adds src's members to dst and reports whether dst grew.
func unionInto(dst, src map[types.Object]bool) bool {
	changed := false
	for k := range src {
		if !dst[k] {
			dst[k] = true
			changed = true
		}
	}
	return changed
}

type lockKind int

const (
	lockNone lockKind = iota
	lockAcquire
	lockRelease
)

// lockMethodKind classifies fn as a blocking sync.Mutex/RWMutex
// acquisition or release. TryLock variants cannot block and are skipped.
func lockMethodKind(fn *types.Func) lockKind {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockNone
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return lockNone
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return lockAcquire
	case "Unlock", "RUnlock":
		return lockRelease
	}
	return lockNone
}

// lockReceiver resolves the receiver expression of a mutex method call
// to the lock's identity object: the declared struct field for field
// locks (a lock *class* — every instance of the struct shares the
// order), or the variable object for package-level and local locks.
func lockReceiver(pkg *Package, call *ast.CallExpr) (types.Object, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	return refObject(pkg, sel.X)
}

func refObject(pkg *Package, e ast.Expr) (types.Object, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.StarExpr:
		return refObject(pkg, x.X)
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok && sel.Obj() != nil {
			return sel.Obj(), true
		}
		return nil, false
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			obj = pkg.Info.Defs[x]
		}
		return obj, obj != nil
	case *ast.IndexExpr:
		return refObject(pkg, x.X)
	}
	return nil, false
}

// refName renders a lock object for diagnostics: Type.field for struct
// fields, the plain name otherwise.
func refName(obj types.Object) string {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		// Find the named struct the field belongs to for display; the
		// object's parent scope does not record it, so fall back to the
		// package-qualified field name.
		return fieldOwnerName(v) + v.Name()
	}
	return obj.Name()
}

// fieldOwnerName best-effort resolves "Owner." for a struct field by
// scanning the declaring package's named types.
func fieldOwnerName(v *types.Var) string {
	pkg := v.Pkg()
	if pkg == nil {
		return ""
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn.Name() + "."
			}
		}
	}
	return ""
}

// lockPathSuffix renders the interprocedural witness chain of an order
// edge ("" for a direct acquisition).
func lockPathSuffix(path []*types.Func) string {
	if len(path) == 0 {
		return ""
	}
	names := make([]string, len(path))
	for i, fn := range path {
		names[i] = funcName(fn)
	}
	return " (via " + strings.Join(names, " -> ") + ")"
}
