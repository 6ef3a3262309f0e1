package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"iprune/internal/analysis/flow"
)

// Goleak certifies goroutine and channel lifecycle: with parsafe and
// lockorder it forms the concflow family that the parallel phase's
// worker pool must pass before any hot path is sharded. parsafe polices
// where goroutines may spawn and how they synchronize; goleak proves
// they can *stop*, and that the channels they talk over are not misused.
//
// Four rules:
//
//   - Every goroutine spawned in the module must have a provably
//     reachable termination path. A loop that can never exit — `for {}`
//     with no reachable return/break, a select loop whose cases never
//     leave, or `for range ch` over a channel nothing in the module
//     closes — pins the goroutine (and everything it references) for the
//     life of the process. Evidence of termination is an exit statement
//     reaching out of every loop, or for channel-ranged loops a
//     module-reachable close of the ranged channel (channel identity is
//     the declared object: a struct field is a channel class, a variable
//     is itself; a channel-typed parameter is resolved through the spawn
//     site's argument).
//   - Double close: close(ch) when ch may already be closed on some path
//     — a guaranteed panic on that path.
//   - Send on possibly-closed: ch <- v after a close(ch) reaches the
//     send — a guaranteed panic on that path.
//   - Hot-path sends need receivers: inside //iprune:hotpath functions a
//     send on a channel no statement in the module ever receives from
//     blocks the kernel forever (or leaks a buffer slot per cycle).
//
// Sites opt out with //iprune:allow-conc <reason>.
var Goleak = &Analyzer{
	Name:      "goleak",
	Doc:       "spawned goroutines provably terminate; channels are not double-closed, sent to after close, or sent with no receiver in hot paths",
	Allow:     "allow-conc",
	Scope:     func(path string) bool { return true },
	RunModule: runGoleak,
}

// chanIndex is the module-wide channel fact base: which channel objects
// are ever closed, and which are ever received from.
type chanIndex struct {
	closed map[types.Object]bool
	recvd  map[types.Object]bool
}

func runGoleak(mp *ModulePass) {
	idx := buildChanIndex(mp)
	t := mp.table()
	for _, s := range t.funcs {
		checkCloseDiscipline(mp, s)
		checkHotpathSends(mp, s, idx)
		checkSpawns(mp, t, s, idx)
	}
}

// buildChanIndex scans every file for close(ch) calls and channel
// receives (unary <-, range-over-channel). Identity is the declared
// object, so a close of one instance's field counts for the field class
// — the same abstraction lockorder uses for locks.
func buildChanIndex(mp *ModulePass) *chanIndex {
	idx := &chanIndex{closed: map[types.Object]bool{}, recvd: map[types.Object]bool{}}
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					if arg, ok := closeArg(pkg, x); ok {
						if obj, ok := refObject(pkg, arg); ok {
							idx.closed[obj] = true
						}
					}
				case *ast.UnaryExpr:
					if x.Op == token.ARROW {
						if obj, ok := refObject(pkg, x.X); ok {
							idx.recvd[obj] = true
						}
					}
				case *ast.RangeStmt:
					if isChanType(pkg, x.X) {
						if obj, ok := refObject(pkg, x.X); ok {
							idx.recvd[obj] = true
						}
					}
				}
				return true
			})
		}
	}
	return idx
}

// closeArg returns the argument of a builtin close(ch) call.
func closeArg(pkg *Package, call *ast.CallExpr) (ast.Expr, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 1 {
		return nil, false
	}
	if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "close" {
		return nil, false
	}
	return call.Args[0], true
}

func isChanType(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// ---- close discipline: double-close and send-after-close ----

// checkCloseDiscipline runs a may-closed dataflow over the function's
// CFG: close(ch) adds the channel to the set, reassigning the channel
// variable removes it (a fresh channel is open). A close or send that a
// prior close reaches is a guaranteed panic on that path.
func checkCloseDiscipline(mp *ModulePass, s *funcSummary) {
	pkg := s.pkg
	g := mp.funcs.cfg(s.decl.Body)
	entry := flow.Forward(g,
		map[types.Object]bool{},
		func() map[types.Object]bool { return nil }, // nil: no path reaches the block yet
		func(dst, src map[types.Object]bool) (map[types.Object]bool, bool) {
			if dst == nil {
				return cloneSet(src), true
			}
			return dst, unionInto(dst, src)
		},
		func(b *flow.Block, in map[types.Object]bool) map[types.Object]bool {
			out := cloneSet(in)
			for _, n := range b.Nodes {
				closedTransfer(pkg, n, out, nil)
			}
			return out
		})
	pass := mp.Pass(pkg)
	for _, b := range g.Blocks {
		closed := entry[b]
		if closed == nil {
			continue // no path reaches the block
		}
		for _, n := range b.Nodes {
			closedTransfer(pkg, n, closed, pass)
		}
	}
}

// closedTransfer interprets one CFG node against the may-closed set;
// when pass is non-nil it also reports violations.
func closedTransfer(pkg *Package, n ast.Node, closed map[types.Object]bool, pass *Pass) {
	switch n.(type) {
	case *ast.RangeStmt, *ast.DeferStmt, *ast.GoStmt:
		// Deferred closes run at exit; spawned bodies run elsewhere.
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if obj, ok := disciplineObject(pkg, x.Chan); ok && closed[obj] && pass != nil {
				pass.Reportf(x.Arrow,
					"send on %s after close(%s) reaches it: sending on a closed channel panics (reorder the close, or annotate //iprune:allow-conc)",
					refName(obj), refName(obj))
			}
		case *ast.CallExpr:
			arg, ok := closeArg(pkg, x)
			if !ok {
				return true
			}
			obj, ok := disciplineObject(pkg, arg)
			if !ok {
				return true
			}
			if closed[obj] && pass != nil {
				pass.Reportf(x.Pos(),
					"close(%s) may close an already-closed channel: closing twice panics (close in exactly one owner, or annotate //iprune:allow-conc)",
					refName(obj))
			}
			closed[obj] = true
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if obj, ok := refObject(pkg, lhs); ok {
					delete(closed, obj) // reassigned: a fresh, open channel
				}
			}
		}
		return true
	})
}

// disciplineObject resolves a channel expression for the close-discipline
// check. Unlike refObject it refuses expressions that go through an
// index: closing h.shards[i].ch in a loop closes a *different* instance
// each iteration, so the field-class abstraction (one object per
// declared field) would see a false double-close. The module-wide close
// index keeps the class view — there, conflating instances is what makes
// a per-shard close count as termination evidence for a per-shard range.
func disciplineObject(pkg *Package, e ast.Expr) (types.Object, bool) {
	if hasIndexStep(e) {
		return nil, false
	}
	return refObject(pkg, e)
}

func hasIndexStep(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			return true
		default:
			return false
		}
	}
}

// ---- hot-path sends ----

// checkHotpathSends flags sends inside //iprune:hotpath functions on
// channels nothing in the module receives from.
func checkHotpathSends(mp *ModulePass, s *funcSummary, idx *chanIndex) {
	if !mp.Dirs.ObjHas(s.fn, "hotpath") {
		return
	}
	pkg := s.pkg
	pass := mp.Pass(pkg)
	ast.Inspect(s.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		send, ok := n.(*ast.SendStmt)
		if !ok {
			return true
		}
		obj, ok := refObject(pkg, send.Chan)
		if !ok || idx.recvd[obj] {
			return true
		}
		pass.Reportf(send.Arrow,
			"hotpath send on %s but no statement in the module receives from it: the kernel blocks (or fills the buffer) with no consumer (add a receiver, or annotate //iprune:allow-conc)",
			refName(obj))
		return true
	})
}

// ---- spawn termination ----

// checkSpawns verifies every go statement in the function spawns a body
// with a provably reachable termination path.
func checkSpawns(mp *ModulePass, t *funcTable, s *funcSummary, idx *chanIndex) {
	pkg := s.pkg
	pass := mp.Pass(pkg)
	ast.Inspect(s.decl.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		body, alias := spawnedBody(t, pkg, gs)
		if body == nil {
			return true // dynamic target: nothing provable, stay silent
		}
		checkTermination(pass, pkg, gs.Pos(), body, alias, idx)
		return true
	})
}

// spawnedBody resolves a go statement to the body it runs: the literal's
// body for `go func(){...}()`, the declaration's body for a static
// callee in the module. For the latter, channel-typed parameters are
// aliased to the argument objects at the spawn site so close evidence
// transfers through the call.
func spawnedBody(t *funcTable, pkg *Package, gs *ast.GoStmt) (*ast.BlockStmt, map[types.Object]types.Object) {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body, nil
	}
	fn := staticCallee(pkg.Info, gs.Call)
	if fn == nil || interfaceMethod(fn) {
		return nil, nil
	}
	callee, ok := t.index[fn]
	if !ok {
		return nil, nil
	}
	alias := map[types.Object]types.Object{}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len() && i < len(gs.Call.Args); i++ {
		param := sig.Params().At(i)
		if _, ok := param.Type().Underlying().(*types.Chan); !ok {
			continue
		}
		if argObj, ok := refObject(pkg, gs.Call.Args[i]); ok {
			alias[param] = argObj
		}
	}
	return callee.decl.Body, alias
}

// checkTermination reports loops in a spawned body that can never exit.
func checkTermination(pass *Pass, pkg *Package, spawn token.Pos, body *ast.BlockStmt, alias map[types.Object]types.Object, idx *chanIndex) {
	chanOf := func(e ast.Expr) (types.Object, bool) {
		obj, ok := refObject(pkg, e)
		if !ok {
			return nil, false
		}
		if a, ok := alias[obj]; ok {
			obj = a
		}
		return obj, true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its own goroutine discipline is checked at its own spawn
		}
		switch loop := n.(type) {
		case *ast.ForStmt:
			if loop.Cond != nil || loopExits(loop) {
				return true
			}
			pass.Reportf(spawn,
				"goroutine spawned here never terminates: the loop at %s has no reachable return or break (select on a ctx.Done()/close-signal channel and exit, or annotate //iprune:allow-conc)",
				pkg.Fset.Position(loop.Pos()))
		case *ast.RangeStmt:
			if !isChanType(pkg, loop.X) || loopExits(loop) {
				return true
			}
			obj, ok := chanOf(loop.X)
			if !ok {
				return true
			}
			if !idx.closed[obj] {
				pass.Reportf(spawn,
					"goroutine spawned here never terminates: it ranges over %s but nothing in the module closes it (close the channel when producers finish, or annotate //iprune:allow-conc)",
					refName(obj))
			}
		}
		return true
	})
}

// loopExits reports whether a loop body contains a statement that leaves
// the loop: a return, a break binding to the loop (unlabeled breaks
// inside nested selects/switches/loops bind to those instead), a goto,
// or a call that never returns (panic, os.Exit, runtime.Goexit).
func loopExits(loop ast.Stmt) bool {
	var body *ast.BlockStmt
	switch l := loop.(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.RangeStmt:
		body = l.Body
	default:
		return true
	}
	return exitsScan(body, false)
}

// exitsScan walks a statement tree; shadowed means an unlabeled break
// here would bind to an inner breakable construct, not the loop under
// test. Returns/gotos/no-return calls exit regardless of nesting.
func exitsScan(n ast.Node, shadowed bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found || m == nil {
			return false
		}
		switch s := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
			return false
		case *ast.BranchStmt:
			switch s.Tok {
			case token.BREAK:
				if !shadowed || s.Label != nil {
					found = true
				}
			case token.GOTO:
				found = true // conservatively an exit
			}
			return false
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			if m == n {
				return true // the construct we were asked about
			}
			if exitsScan(m, true) {
				found = true
			}
			return false
		case *ast.CallExpr:
			if noReturnCall(s) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// noReturnCall recognizes calls that never return control.
func noReturnCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			return (pkg.Name == "os" && fun.Sel.Name == "Exit") ||
				(pkg.Name == "runtime" && fun.Sel.Name == "Goexit") ||
				(pkg.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln"))
		}
	}
	return false
}
