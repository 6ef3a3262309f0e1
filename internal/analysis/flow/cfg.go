// Package flow is a lightweight per-function control-flow and dataflow
// engine built only on the standard library's go/ast and go/types — the
// substrate for the analyzers that must see across branches and loops
// (warhazard's preservation intervals, lockorder's held locks, goleak's
// closed channels) where a plain AST walk cannot.
//
// A Graph is a set of basic blocks over the *statements and control
// expressions* of one function body: compound statements are decomposed,
// so a block's Nodes slice holds simple statements (assignments, calls,
// sends, returns) plus the condition expressions of the branches that
// end it. Analyses consume blocks with a transfer function and the
// Forward fixpoint solver (dataflow.go).
package flow

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal run of nodes executed without
// branching. Nodes holds simple statements and branch/loop condition
// expressions in evaluation order; Succs are the control-flow
// successors. Branch, when non-nil, labels the conditional exit of the
// block so path-sensitive analyses can refine facts per edge.
type Block struct {
	Index  int
	Nodes  []ast.Node
	Succs  []*Block
	Branch *Branch
}

// Branch labels a block's two-way conditional exit: control reaches
// True when Cond evaluates to true and False otherwise. Only if
// statements and for-loop condition heads produce branches; multi-way
// dispatch (switch, select, range termination) carries no label and
// stays path-insensitive.
type Branch struct {
	Cond  ast.Expr
	True  *Block
	False *Block
}

// Graph is the control-flow graph of one function body. Entry is the
// block control enters at; Exit is a virtual block every return (and the
// fall-off-the-end path) edges to.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// Preds computes the predecessor sets of every block.
func (g *Graph) Preds() map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(g.Blocks))
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// Build constructs the CFG of one function body. The builder decomposes
// if/for/range/switch/type-switch/select statements, resolves
// break/continue (labeled or not), goto, and fallthrough; defer and go
// statements are kept as plain nodes in their block (their call
// arguments are evaluated there; deferred execution order is a
// per-analysis concern).
func Build(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: map[string]*labelInfo{}}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	b.stmts(body.List)
	b.edge(b.cur, g.Exit)
	return g
}

// labelInfo tracks the targets a label can resolve to: the block the
// labeled statement starts at (goto), and — while a labeled loop or
// switch is being built — its break/continue targets.
type labelInfo struct {
	start *Block // target of goto; start of the labeled statement
	brk   *Block
	cont  *Block
}

type builder struct {
	g      *Graph
	cur    *Block
	brk    *Block // innermost break target
	cont   *Block // innermost continue target
	fall   *Block // next case body, while building a switch case
	labels map[string]*labelInfo
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *builder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *builder) label(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{start: b.newBlock()}
		b.labels[name] = li
	}
	return li
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, nil)
	case *ast.RangeStmt:
		b.rangeStmt(s, nil)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body, nil)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, nil)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = b.newBlock()
	case *ast.EmptyStmt:
	default:
		// Assignments, declarations, expression/send/inc-dec statements,
		// defer and go: straight-line nodes.
		b.add(s)
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	after := b.newBlock()
	then := b.newBlock()
	b.edge(cond, then)
	b.cur = then
	b.stmt(s.Body)
	b.edge(b.cur, after)
	if s.Else != nil {
		els := b.newBlock()
		b.edge(cond, els)
		cond.Branch = &Branch{Cond: s.Cond, True: then, False: els}
		b.cur = els
		b.stmt(s.Else)
		b.edge(b.cur, after)
	} else {
		b.edge(cond, after)
		cond.Branch = &Branch{Cond: s.Cond, True: then, False: after}
	}
	b.cur = after
}

func (b *builder) forStmt(s *ast.ForStmt, li *labelInfo) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock()
	body := b.newBlock()
	post := b.newBlock()
	after := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
		b.edge(head, after)
		head.Branch = &Branch{Cond: s.Cond, True: body, False: after}
	}
	b.edge(head, body)

	savedBrk, savedCont := b.brk, b.cont
	b.brk, b.cont = after, post
	if li != nil {
		li.brk, li.cont = after, post
	}
	b.cur = body
	b.stmt(s.Body)
	b.edge(b.cur, post)
	b.cur = post
	if s.Post != nil {
		b.stmt(s.Post)
	}
	b.edge(b.cur, head)
	b.brk, b.cont = savedBrk, savedCont
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt, li *labelInfo) {
	// The range operand is evaluated once, before the loop.
	b.add(s.X)
	head := b.newBlock()
	body := b.newBlock()
	after := b.newBlock()
	b.edge(b.cur, head)
	b.edge(head, body)
	b.edge(head, after)

	savedBrk, savedCont := b.brk, b.cont
	b.brk, b.cont = after, head
	if li != nil {
		li.brk, li.cont = after, head
	}
	b.cur = body
	// The RangeStmt node itself stands for the per-iteration key/value
	// assignment; analyses must interpret it as exactly that (not walk
	// into X or Body, which have their own blocks).
	b.add(s)
	b.stmt(s.Body)
	b.edge(b.cur, head)
	b.brk, b.cont = savedBrk, savedCont
	b.cur = after
}

func (b *builder) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, li *labelInfo) {
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.add(tag)
	}
	b.caseClauses(body, li, func(cc *ast.CaseClause) {
		// Case expressions are evaluated while dispatching; they belong
		// to the head block.
		for _, e := range cc.List {
			b.add(e)
		}
	})
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, li *labelInfo) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Assign)
	b.caseClauses(s.Body, li, nil)
}

// caseClauses builds the branch structure shared by expression and type
// switches: head fans out to one block per case, fallthrough links case
// bodies, a missing default adds a head→after edge.
func (b *builder) caseClauses(body *ast.BlockStmt, li *labelInfo, caseExprs func(*ast.CaseClause)) {
	head := b.cur
	after := b.newBlock()
	var clauses []*ast.CaseClause
	for _, s := range body.List {
		if cc, ok := s.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
			if caseExprs != nil {
				caseExprs(cc)
			}
		}
	}
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		bodies[i] = b.newBlock()
		b.edge(head, bodies[i])
		if len(cc.List) == 0 {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	savedBrk, savedFall := b.brk, b.fall
	b.brk = after
	if li != nil {
		li.brk = after
	}
	for i, cc := range clauses {
		b.fall = nil
		if i+1 < len(bodies) {
			b.fall = bodies[i+1]
		}
		b.cur = bodies[i]
		b.stmts(cc.Body)
		b.edge(b.cur, after)
	}
	b.brk, b.fall = savedBrk, savedFall
	b.cur = after
}

func (b *builder) selectStmt(s *ast.SelectStmt) {
	head := b.cur
	after := b.newBlock()
	savedBrk := b.brk
	b.brk = after
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmts(cc.Body)
		b.edge(b.cur, after)
	}
	b.brk = savedBrk
	b.cur = after
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	li := b.label(s.Label.Name)
	b.edge(b.cur, li.start)
	b.cur = li.start
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, li)
	case *ast.RangeStmt:
		b.rangeStmt(inner, li)
	case *ast.SwitchStmt:
		b.switchStmt(inner.Init, inner.Tag, inner.Body, li)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, li)
	default:
		b.stmt(s.Stmt)
	}
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	var target *Block
	switch s.Tok {
	case token.BREAK:
		target = b.brk
		if s.Label != nil {
			target = b.label(s.Label.Name).brk
		}
	case token.CONTINUE:
		target = b.cont
		if s.Label != nil {
			target = b.label(s.Label.Name).cont
		}
	case token.GOTO:
		if s.Label != nil {
			target = b.label(s.Label.Name).start
		}
	case token.FALLTHROUGH:
		target = b.fall
	}
	if target != nil {
		b.edge(b.cur, target)
	}
	// Whatever textually follows the branch is unreachable from here;
	// give it a fresh (possibly pred-less) block.
	b.cur = b.newBlock()
}
