package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"iprune/internal/analysis/flow"
)

// Parsafe checks that goroutines do not undermine the intermittence
// story. Concurrency interacts with checkpointing in ways the other
// analyzers cannot see: a goroutine that touches FRAM-backed state races
// the preservation discipline (a checkpoint may capture a half-updated
// location, and re-execution after a power failure re-spawns work whose
// first run already mutated NVM), and a spawn inside a //iprune:hotpath
// kernel adds scheduling cost the per-power-cycle energy envelope does
// not budget for.
//
// Three rules:
//
//   - No goroutine launches inside //iprune:hotpath functions. The hot
//     kernels are sized to finish within one power cycle; spawn cost and
//     scheduling jitter break that accounting.
//
//   - A `go func() { … }()` closure that accesses //iprune:nvm state
//     (directly or through a derived alias) must perform a
//     synchronization step before the access: a sync.Mutex/RWMutex
//     Lock/RLock, or a channel send/receive that orders it against the
//     spawner. An unsynchronized access races the checkpoint walk.
//
//   - Function-local sync.WaitGroup discipline: every Add must have a
//     reachable Wait (otherwise spawned work can outlive the
//     preservation interval it was accounted to), and a spawned closure
//     that uses the WaitGroup must call Done — deferred, so panic and
//     early-return paths still release the Wait. WaitGroups whose
//     address escapes the function are skipped; the analysis cannot see
//     their other users.
//
// Sites opt out with //iprune:allow-par <reason>.
var Parsafe = &Analyzer{
	Name:  "parsafe",
	Doc:   "goroutines do not race NVM state, hot paths, or WaitGroup accounting",
	Allow: "allow-par",
	Scope: func(path string) bool { return true },
	Run:   runParsafe,
}

func runParsafe(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			pf := &parsafeFunc{
				pass: pass,
				wf: &warFunc{
					pass:    pass,
					derived: map[types.Object]warKey{},
					display: map[warKey]string{},
				},
			}
			pf.wf.collectDerived(fd.Body)
			pf.check(fd)
		}
	}
}

// parsafeFunc analyzes one function declaration. It borrows the
// warhazard analyzer's NVM-location resolver (warFunc.nvmRef) so both
// analyzers agree on what counts as intermittence-critical state.
type parsafeFunc struct {
	pass *Pass
	wf   *warFunc
}

func (pf *parsafeFunc) check(fd *ast.FuncDecl) {
	hot := pf.pass.FuncHas(fd, "hotpath")
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if hot {
			pf.pass.Reportf(g.Pos(),
				"goroutine launched inside //iprune:hotpath function %s: spawn and scheduling costs are outside the kernel's per-power-cycle energy envelope (move the spawn out of the hot path or annotate //iprune:allow-par)",
				fd.Name.Name)
		}
		if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
			pf.checkCapture(lit)
		}
		return true
	})
	pf.checkWaitGroups(fd)
}

// checkCapture walks a spawned closure's body in source order, tracking
// whether a synchronization event has happened yet; an NVM access before
// the first one is a race with the checkpoint discipline.
func (pf *parsafeFunc) checkCapture(lit *ast.FuncLit) {
	synced := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // nested spawn targets get their own visit
		case *ast.SendStmt:
			synced = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				synced = true
			}
		case *ast.CallExpr:
			if fn := staticCallee(pf.pass.Info, n); fn != nil && isSyncAcquire(fn) {
				synced = true
			}
		case ast.Expr:
			if key, disp, ok := pf.wf.nvmRef(n); ok {
				if !synced {
					pf.pass.Reportf(n.Pos(),
						"goroutine captures NVM-backed %s with no synchronization before the access: a concurrent access races checkpointing and re-execution can observe torn state (guard with a mutex or channel handoff, or annotate //iprune:allow-par)",
						disp)
				}
				_ = key
				return false // one report per access path
			}
		}
		return true
	})
}

// isSyncAcquire reports whether fn is a blocking acquisition from the
// sync package (Mutex.Lock, RWMutex.Lock/RLock) that orders the
// goroutine against its spawner.
func isSyncAcquire(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	return fn.Name() == "Lock" || fn.Name() == "RLock"
}

// checkWaitGroups enforces the Add/Wait/Done discipline for
// function-local sync.WaitGroup variables.
func (pf *parsafeFunc) checkWaitGroups(fd *ast.FuncDecl) {
	wgs := pf.localWaitGroups(fd.Body)
	if len(wgs) == 0 {
		return
	}
	g := pf.pass.funcs.cfg(fd.Body)
	for _, obj := range wgs {
		pf.checkAddWait(fd, g, obj)
		pf.checkSpawnedDone(fd.Body, obj)
	}
}

// localWaitGroups finds value-typed sync.WaitGroup locals whose address
// never escapes beyond their own method calls.
func (pf *parsafeFunc) localWaitGroups(body *ast.BlockStmt) []types.Object {
	var wgs []types.Object
	escaped := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := pf.pass.Info.Defs[n]; obj != nil {
				if v, ok := obj.(*types.Var); ok && !v.IsField() && isWaitGroup(v.Type()) {
					wgs = append(wgs, obj)
				}
			}
		case *ast.UnaryExpr:
			// &wg hands the WaitGroup to code this function cannot see.
			if n.Op == token.AND {
				if obj := pf.wf.identObj(n.X); obj != nil {
					escaped[obj] = true
				}
			}
		}
		return true
	})
	kept := wgs[:0]
	for _, obj := range wgs {
		if !escaped[obj] {
			kept = append(kept, obj)
		}
	}
	return kept
}

func isWaitGroup(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// wgSite is one wg.<method> call site in the CFG.
type wgSite struct {
	block *flow.Block
	idx   int // node index within the block
	pos   token.Pos
}

// checkAddWait reports Add calls from which no Wait is reachable in the
// function's CFG. Calls inside function literals belong to the spawned
// goroutine and do not count for either side; a deferred Wait runs at
// function exit and so satisfies every Add.
func (pf *parsafeFunc) checkAddWait(fd *ast.FuncDecl, g *flow.Graph, obj types.Object) {
	var adds []wgSite
	waits := map[*flow.Block][]int{}
	deferredWait := false
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if ds, ok := n.(*ast.DeferStmt); ok {
				if m, ok := pf.wgMethod(ds.Call, obj); ok && m == "Wait" {
					deferredWait = true
				}
				continue
			}
			pf.scanCalls(n, func(call *ast.CallExpr) {
				m, ok := pf.wgMethod(call, obj)
				if !ok {
					return
				}
				switch m {
				case "Add":
					adds = append(adds, wgSite{block: b, idx: i, pos: call.Pos()})
				case "Wait":
					waits[b] = append(waits[b], i)
				}
			})
		}
	}
	if len(adds) == 0 || deferredWait {
		return
	}
	for _, add := range adds {
		if !pf.waitReachable(add, waits) {
			pf.pass.Reportf(add.pos,
				"sync.WaitGroup %s: no Wait is reachable after this Add, so spawned goroutines can outlive the interval that accounted for them (call %s.Wait before committing, or annotate //iprune:allow-par)",
				obj.Name(), obj.Name())
		}
	}
}

// waitReachable reports whether any Wait site lies after add in its own
// block or in a CFG-reachable successor block.
func (pf *parsafeFunc) waitReachable(add wgSite, waits map[*flow.Block][]int) bool {
	for _, wi := range waits[add.block] {
		if wi > add.idx {
			return true
		}
	}
	seen := map[*flow.Block]bool{}
	queue := append([]*flow.Block{}, add.block.Succs...)
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if seen[b] {
			continue
		}
		seen[b] = true
		if len(waits[b]) > 0 {
			return true
		}
		queue = append(queue, b.Succs...)
	}
	return false
}

// checkSpawnedDone checks every spawned closure that uses the WaitGroup:
// it must call Done, and the Done must be deferred so panic and
// early-return paths still release the Wait.
func (pf *parsafeFunc) checkSpawnedDone(body *ast.BlockStmt, obj types.Object) {
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok || !pf.usesObj(lit.Body, obj) {
			return true
		}
		deferred, plain := false, false
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				if name, ok := pf.wgMethod(m.Call, obj); ok && name == "Done" {
					deferred = true
					return false
				}
			case *ast.CallExpr:
				if name, ok := pf.wgMethod(m, obj); ok && name == "Done" {
					plain = true
				}
			}
			return true
		})
		switch {
		case !deferred && !plain:
			pf.pass.Reportf(g.Pos(),
				"goroutine uses sync.WaitGroup %s but never calls %s.Done: the matching Wait blocks forever and the power budget stalls with it",
				obj.Name(), obj.Name())
		case !deferred:
			pf.pass.Reportf(g.Pos(),
				"%s.Done is not deferred: a panic or early return in the goroutine skips it and the matching Wait blocks forever (use defer %s.Done())",
				obj.Name(), obj.Name())
		}
		return true
	})
}

// usesObj reports whether the node references obj.
func (pf *parsafeFunc) usesObj(n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && pf.pass.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// wgMethod matches call as obj.<Add|Wait|Done>(...).
func (pf *parsafeFunc) wgMethod(call *ast.CallExpr, obj types.Object) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pf.wf.identObj(sel.X) != obj {
		return "", false
	}
	switch sel.Sel.Name {
	case "Add", "Wait", "Done":
		return sel.Sel.Name, true
	}
	return "", false
}

// scanCalls visits every call expression in n, skipping function
// literals (their bodies run on another goroutine and are checked by
// the spawn rules, not the spawner's CFG) and RangeStmt nodes (in the
// CFG they stand for the per-iteration binding only; the loop body's
// statements live in their own blocks and would be double-counted).
func (pf *parsafeFunc) scanCalls(n ast.Node, visit func(*ast.CallExpr)) {
	if _, ok := n.(*ast.RangeStmt); ok {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if c, ok := m.(*ast.CallExpr); ok {
			visit(c)
		}
		return true
	})
}
