package flow

// Forward solves a forward dataflow problem to its fixpoint with a
// worklist. The fact S attached to each block is its *entry* state:
// the entry block starts from boundary, every other block from
// bottom(). join folds a predecessor's exit fact src into a block's
// entry fact dst, returning the merged fact (it may mutate and return
// dst) and whether anything changed — the solver's convergence signal.
// transfer maps a block's entry fact to its exit fact and must not
// mutate its input.
//
// The analyses here use nil as bottom: join copies the first fact to
// reach a block and reports a change, so the block is processed even
// when that fact is empty, and a block whose entry fact is still nil
// after the solve is one no path reaches.
//
// The solver terminates for any monotone transfer over a finite-height
// join semilattice — the shape every analysis in this repo uses
// (finite sets of objects under union- or intersection-like joins).
func Forward[S any](
	g *Graph,
	boundary S,
	bottom func() S,
	join func(dst, src S) (S, bool),
	transfer func(b *Block, in S) S,
) map[*Block]S {
	return ForwardEdges(g, boundary, bottom, join, transfer, nil)
}

// ForwardEdges is Forward with edge-level refinement: before a block's
// exit fact is joined into a successor, refine may rewrite it with
// knowledge of the edge being taken — typically asserting the outcome
// of the block's Branch condition — or declare the edge infeasible by
// returning ok == false, in which case nothing propagates along it.
// refine must not mutate out: the same exit fact is offered to every
// successor, so a refinement must copy before specializing. A nil
// refine makes ForwardEdges identical to Forward.
func ForwardEdges[S any](
	g *Graph,
	boundary S,
	bottom func() S,
	join func(dst, src S) (S, bool),
	transfer func(b *Block, in S) S,
	refine func(from, to *Block, out S) (S, bool),
) map[*Block]S {
	in := make(map[*Block]S, len(g.Blocks))
	for _, b := range g.Blocks {
		in[b] = bottom()
	}
	in[g.Entry] = boundary

	work := make([]*Block, 0, len(g.Blocks))
	queued := make(map[*Block]bool, len(g.Blocks))
	push := func(b *Block) {
		if !queued[b] {
			queued[b] = true
			work = append(work, b)
		}
	}
	push(g.Entry)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		out := transfer(b, in[b])
		for _, s := range b.Succs {
			src := out
			if refine != nil {
				var ok bool
				if src, ok = refine(b, s, out); !ok {
					continue // infeasible edge: propagate nothing
				}
			}
			merged, changed := join(in[s], src)
			in[s] = merged
			if changed {
				push(s)
			}
		}
	}
	return in
}
