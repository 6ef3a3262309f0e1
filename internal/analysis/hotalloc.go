package analysis

// HotAlloc flags heap-allocating constructs inside loops of functions
// marked //iprune:hotpath: make/new/append calls, map composite
// literals, and closures. These are the per-inference inner kernels the
// benchmarks measure; an allocation that creeps into one of their loops
// turns a tight counting/MAC kernel into a GC workload and skews every
// latency number downstream. Preallocate outside the loop, or annotate
// the site with //iprune:allow-alloc <reason> when the allocation is
// provably amortized (e.g. append into a slice sized up front).
var HotAlloc = &Analyzer{
	Name:      "hotalloc",
	Doc:       "no allocations inside loops of //iprune:hotpath functions",
	Allow:     "allow-alloc",
	Scope:     func(path string) bool { return true },
	RunModule: runHotAlloc,
}

// runHotAlloc reports the allocation sites of the function table that
// sit inside a loop of a hotpath function: allocflow's zero-length
// chain. A loop's header counts at the depth around the loop, and a
// closure's body at the depth the closure is created at.
func runHotAlloc(mp *ModulePass) {
	for _, s := range mp.table().funcs {
		if !mp.Dirs.ObjHas(s.fn, "hotpath") {
			continue
		}
		pass := mp.Pass(s.pkg)
		for _, a := range s.allocs {
			switch {
			case a.depth == 0:
				continue // once per call: amortized
			case a.what == "closure" || a.what == "map literal":
				pass.Reportf(a.pos, "%s allocated in hot loop", a.what)
			default:
				pass.Reportf(a.pos, "%s in hot loop (preallocate outside the loop)", a.what)
			}
		}
	}
}
