package analysis

import (
	"context"

	"iprune/internal/pool"
)

// Parallel driver: the analyzers decompose into independent work units —
// one per (package, per-package analyzer) pair plus one per module-level
// analyzer — each writing into its own result slot. Merging the slots in
// task order reproduces exactly the append order of the sequential
// driver, so Run and RunParallel produce byte-identical output by
// construction: Run *is* RunParallel with one worker, and the final Sort
// is a total order (file, line, column, analyzer, message).
//
// Concurrency safety rests on the same contract go/types documents: all
// type-checker products (types.Info, scopes, named types) are read-only
// after loading, directive indexes are read-only after Collect, and each
// module analyzer builds its own devirtualizer/summaries. The pool that
// executes the tasks is the concflow-certified internal/pool.

// lintTask is one independent work unit of a lint run.
type lintTask struct {
	pkg *Package // target package; nil for module-analyzer tasks
	run func() []Diagnostic
}

// lintTasks builds the work units in canonical order: per-package
// analyzers over the targets (package-major, analyzer-minor — the
// sequential loop order), then the module analyzers. modulePkgs is the
// package set module analyzers see (the whole clean module); targets is
// the set per-package analyzers run on and module analyzers report into
// (only — nil means report everywhere Scope allows).
func lintTasks(analyzers []*Analyzer, modulePkgs, targets []*Package, dirs *Directives, only map[*Package]bool) []lintTask {
	var tasks []lintTask
	for _, pkg := range targets {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			if a.Scope != nil && !a.Scope(pkg.Path) {
				continue
			}
			pkg, a := pkg, a
			tasks = append(tasks, lintTask{pkg: pkg, run: func() []Diagnostic {
				return runPkg(a, pkg, dirs)
			}})
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		a := a
		tasks = append(tasks, lintTask{run: func() []Diagnostic {
			var diags []Diagnostic
			mp := &ModulePass{
				Pkgs:   modulePkgs,
				Dirs:   dirs,
				diags:  &diags,
				allow:  a.Allow,
				name:   a.Name,
				scope:  a.Scope,
				only:   only,
				passes: map[*Package]*Pass{},
			}
			a.RunModule(mp)
			return diags
		}})
	}
	return tasks
}

// executeTasks runs every task with workers-way parallelism (the
// calling goroutine counts as one worker; workers <= 1 runs them in
// order) and returns the results indexed by task. An analyzer panic is
// re-raised on the caller, matching sequential behavior.
func executeTasks(tasks []lintTask, workers int) [][]Diagnostic {
	results := make([][]Diagnostic, len(tasks))
	_ = pool.Run(context.Background(), workers, len(tasks), func(i int) {
		results[i] = tasks[i].run()
	}) // a Background context never cancels
	return results
}

// RunParallel is Run with workers-way parallelism across packages and
// analyzers. Output is byte-identical to Run for any worker count.
func RunParallel(analyzers []*Analyzer, pkgs []*Package, dirs *Directives, workers int) []Diagnostic {
	clean := cleanPkgs(pkgs)
	tasks := lintTasks(analyzers, clean, clean, dirs, nil)
	var diags []Diagnostic
	for _, r := range executeTasks(tasks, workers) {
		diags = append(diags, r...)
	}
	Sort(diags)
	return diags
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
