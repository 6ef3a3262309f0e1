// Package pool is the repo's one-shot fan-out: fleet runs, the lint
// loader's parallel parse, and nn's training and evaluation passes shard
// their work through Run.
//
// Run starts its goroutines, joins every one of them and returns, so no
// goroutine outlives the call. The package is the first client of the
// concflow analyzers (lockorder, goleak, parsafe): it takes no lock, and
// goleak can prove that each goroutine ends. `iprunelint ./...` runs over
// this package in CI.
package pool

import (
	"context"
	"sync"
	"sync/atomic"
)

// Run runs fn(i) for every i in [0,n) on at most workers goroutines,
// the caller being one of them, and returns once every started task has
// finished. With workers <= 1 or n <= 1 the tasks run inline, in index
// order, and no goroutine starts. Otherwise min(workers, n) goroutines,
// the caller counting as one, draw indices from one atomic counter,
// checking ctx before each draw. A task panic stops further draws and
// is re-raised on the caller, with the task's panic value, once every
// goroutine has returned. On cancellation the remaining indices are
// abandoned; Run returns ctx.Err(), which is nil when every task ran.
func Run(ctx context.Context, workers, n int, fn func(int)) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return ctx.Err()
	}
	r := &run{ctx: ctx, fn: fn, n: int64(n)}
	extra := min(workers, n) - 1
	r.wg.Add(extra)
	for g := 0; g < extra; g++ {
		go r.worker()
	}
	r.draw()
	r.wg.Wait()
	if p := r.pan.Load(); p != nil {
		panic(*p)
	}
	return ctx.Err()
}

// run is the state one Run call shares with its goroutines, in one
// allocation: closures capturing the counter, the panic slot and the
// WaitGroup moved each to the heap on its own (7 allocations per call at
// width 2, against 4 with this struct).
type run struct {
	ctx  context.Context
	fn   func(int)
	n    int64
	next atomic.Int64
	pan  atomic.Pointer[any] // the first task panic's value
	wg   sync.WaitGroup
}

func (r *run) worker() {
	defer r.wg.Done()
	r.draw()
}

// draw runs tasks until the indices run out, ctx is cancelled or a task
// has panicked; it records the first panic.
func (r *run) draw() {
	defer func() {
		if p := recover(); p != nil {
			r.pan.CompareAndSwap(nil, &p)
		}
	}()
	for r.ctx.Err() == nil && r.pan.Load() == nil {
		i := r.next.Add(1) - 1
		if i >= r.n {
			return
		}
		r.fn(int(i))
	}
}
