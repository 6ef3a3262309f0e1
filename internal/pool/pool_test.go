package pool

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsAll(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 1000
	var hits [n]atomic.Int32
	if err := p.ForEach(context.Background(), n, func(i int) {
		hits[i].Add(1)
	}); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, got)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	p := New(2)
	defer p.Close()
	if err := p.ForEach(context.Background(), 0, func(int) { t.Error("fn called for n=0") }); err != nil {
		t.Fatalf("ForEach(0): %v", err)
	}
}

func TestForEachFewerTasksThanWorkers(t *testing.T) {
	p := New(8)
	defer p.Close()
	var ran atomic.Int32
	if err := p.ForEach(context.Background(), 3, func(int) { ran.Add(1) }); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if ran.Load() != 3 {
		t.Fatalf("ran %d tasks, want 3", ran.Load())
	}
}

// Cancellation mid-batch abandons the remaining indices: every started
// task finishes, ForEach returns ctx.Err(), and the pool stays usable.
func TestCancellationMidBatch(t *testing.T) {
	p := New(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	const n = 100000
	err := p.ForEach(ctx, n, func(i int) {
		if ran.Add(1) == 10 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEach after cancel: %v, want context.Canceled", err)
	}
	if got := ran.Load(); got < 10 || got == n {
		t.Fatalf("ran %d tasks; want ≥10 (reached the trigger) and <%d (abandoned the tail)", got, n)
	}
	// The pool must still work.
	if err := p.ForEach(context.Background(), 5, func(int) {}); err != nil {
		t.Fatalf("ForEach after cancellation: %v", err)
	}
}

func TestPreCanceledContext(t *testing.T) {
	p := New(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := p.ForEach(ctx, 10, func(int) { t.Error("fn ran under pre-canceled ctx") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEach: %v, want context.Canceled", err)
	}
}

// A panicking task is contained: ForEach reports the first panic as a
// *PanicError with a stack, the process survives, the pool stays usable.
func TestPanicContainment(t *testing.T) {
	p := New(4)
	defer p.Close()
	err := p.ForEach(context.Background(), 100, func(i int) {
		if i == 7 {
			panic("boom 7")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("ForEach: %v, want *PanicError", err)
	}
	if pe.Value != "boom 7" {
		t.Fatalf("PanicError.Value = %v, want \"boom 7\"", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "pool") {
		t.Fatalf("PanicError.Stack does not mention the pool:\n%s", pe.Stack)
	}
	if err := p.ForEach(context.Background(), 10, func(int) {}); err != nil {
		t.Fatalf("ForEach after panic: %v", err)
	}
}

func TestCloseIdempotentAndJoins(t *testing.T) {
	p := New(3)
	done := make(chan struct{})
	go func() {
		p.Close()
		p.Close() // second close must be a no-op, not a panic
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	if err := p.ForEach(context.Background(), 1, func(int) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("ForEach after Close: %v, want ErrClosed", err)
	}
}

func TestNewClampsWorkers(t *testing.T) {
	p := New(0)
	defer p.Close()
	if p.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS %d", p.Workers(), runtime.GOMAXPROCS(0))
	}
}

// Steady-state ForEach calls must not allocate: the batch descriptor is
// reused and indices are drawn atomically, so a sweep calling ForEach
// per power point adds zero GC pressure.
func TestForEachZeroAllocSteadyState(t *testing.T) {
	p := New(2)
	defer p.Close()
	var sink atomic.Int64
	fn := func(i int) { sink.Add(int64(i)) }
	ctx := context.Background()
	// Warm up (first call may fault in lazily initialized runtime state).
	if err := p.ForEach(ctx, 64, fn); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.ForEach(ctx, 64, fn); err != nil {
			t.Fatalf("ForEach: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ForEach allocates %v per call in steady state, want 0", allocs)
	}
}

// Stress under -race: concurrent ForEach callers (serialized internally),
// interleaved cancellations and panics, then Close racing a final batch.
func TestStressConcurrent(t *testing.T) {
	p := New(4)
	const callers = 8
	done := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			var err error
			for iter := 0; iter < 50; iter++ {
				ctx, cancel := context.WithCancel(context.Background())
				var ran atomic.Int32
				e := p.ForEach(ctx, 200, func(i int) {
					n := ran.Add(1)
					if c%3 == 0 && n == 50 {
						cancel()
					}
					if c%3 == 1 && i == 199 {
						panic("stress panic")
					}
				})
				cancel()
				var pe *PanicError
				if e != nil && !errors.Is(e, context.Canceled) && !errors.As(e, &pe) {
					err = e
					break
				}
			}
			done <- err
		}(c)
	}
	for c := 0; c < callers; c++ {
		if err := <-done; err != nil {
			t.Fatalf("stress caller: %v", err)
		}
	}
	p.Close()
}

func BenchmarkForEach(b *testing.B) {
	p := New(0)
	defer p.Close()
	var sink atomic.Int64
	fn := func(i int) { sink.Add(int64(i)) }
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ForEach(ctx, 256, fn); err != nil {
			b.Fatal(err)
		}
	}
}

// Run is inline and in index order at width 1, fans out otherwise,
// re-raises a task panic on the caller and returns ctx.Err().
func TestRun(t *testing.T) {
	ctx := context.Background()
	var order []int
	if err := Run(ctx, 1, 5, func(i int) { order = append(order, i) }); err != nil || len(order) != 5 || order[4] != 4 {
		t.Fatalf("width 1: order %v, err %v", order, err)
	}
	var hits [100]atomic.Int32
	if err := Run(ctx, 3, len(hits), func(i int) { hits[i].Add(1) }); err != nil {
		t.Fatalf("width 3: %v", err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("width 3: index %d ran %d times", i, hits[i].Load())
		}
	}
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("width %d: recovered %v, want the task's panic value", w, r)
				}
			}()
			_ = Run(ctx, w, 8, func(i int) {
				if i == 5 {
					panic("boom")
				}
			})
		}()
		canceled, cancel := context.WithCancel(ctx)
		cancel()
		if err := Run(canceled, w, 8, func(int) { t.Errorf("width %d: task ran under a canceled ctx", w) }); !errors.Is(err, context.Canceled) {
			t.Errorf("width %d: err %v, want context.Canceled", w, err)
		}
	}
}
