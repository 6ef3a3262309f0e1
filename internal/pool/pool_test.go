package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// Run is inline and in index order at width 1 and runs every index
// exactly once at any other width.
func TestRun(t *testing.T) {
	ctx := context.Background()
	var order []int
	if err := Run(ctx, 1, 5, func(i int) { order = append(order, i) }); err != nil || len(order) != 5 || order[4] != 4 {
		t.Fatalf("width 1: order %v, err %v", order, err)
	}
	for _, w := range []int{2, 3, 8} {
		for _, n := range []int{0, 1, w - 1, w, w + 1, 100} {
			checkEachOnce(t, w, n)
		}
	}
}

// checkEachOnce runs n tasks at width w and fails unless every index ran
// exactly once.
func checkEachOnce(t *testing.T, w, n int) {
	t.Helper()
	hits := make([]atomic.Int32, n)
	if err := Run(context.Background(), w, n, func(i int) { hits[i].Add(1) }); err != nil {
		t.Fatalf("width %d, n %d: %v", w, n, err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("width %d, n %d: index %d ran %d times, want 1", w, n, i, got)
		}
	}
}

// The ForEach tests below keep their names from the pool's earlier
// batch API; they check the same contracts on Run.

func TestForEachRunsAll(t *testing.T) {
	checkEachOnce(t, 4, 1000)
}

func TestForEachEmpty(t *testing.T) {
	for _, w := range []int{1, 2} {
		if err := Run(context.Background(), w, 0, func(int) { t.Errorf("width %d: fn called for n=0", w) }); err != nil {
			t.Fatalf("width %d: Run(0): %v", w, err)
		}
	}
}

func TestForEachFewerTasksThanWorkers(t *testing.T) {
	var ran atomic.Int32
	if err := Run(context.Background(), 8, 3, func(int) { ran.Add(1) }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran.Load() != 3 {
		t.Fatalf("ran %d tasks, want 3", ran.Load())
	}
}

// A task panic stops further draws and is re-raised on the caller, with
// the task's panic value, once every started task has returned; the next
// Run is unaffected.
func TestPanicContainment(t *testing.T) {
	ctx := context.Background()
	for _, w := range []int{1, 4} {
		var started, finished atomic.Int32
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("width %d: recovered %v, want the task's panic value", w, r)
				}
				if s, f := started.Load(), finished.Load(); s != f {
					t.Errorf("width %d: re-raised with %d of %d started tasks still running", w, s-f, s)
				}
			}()
			_ = Run(ctx, w, 64, func(i int) {
				started.Add(1)
				defer finished.Add(1)
				if i == 5 {
					panic("boom")
				}
			})
		}()
		if got := started.Load(); w == 1 && got != 6 {
			t.Errorf("width 1: %d tasks started, want 6 (indices 0-5)", got)
		}
		checkEachOnce(t, w, 10)
	}
}

// Cancellation mid-run abandons the remaining indices: every started
// task finishes and Run returns ctx.Err().
func TestCancellationMidBatch(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		const n = 100000
		err := Run(ctx, w, n, func(i int) {
			if ran.Add(1) == 10 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("width %d: Run after cancel: %v, want context.Canceled", w, err)
		}
		if got := ran.Load(); got < 10 || got == n {
			t.Fatalf("width %d: ran %d tasks; want ≥10 (reached the trigger) and <%d (abandoned the tail)", w, got, n)
		}
	}
}

func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		err := Run(ctx, w, 10, func(int) { t.Errorf("width %d: task ran under a canceled ctx", w) })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("width %d: err %v, want context.Canceled", w, err)
		}
	}
}

// Stress under -race: concurrent Run callers with interleaved
// cancellations and panics.
func TestStressConcurrent(t *testing.T) {
	const callers = 8
	done := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			var err error
			for iter := 0; iter < 50 && err == nil; iter++ {
				err = stressOnce(c)
			}
			done <- err
		}(c)
	}
	for c := 0; c < callers; c++ {
		if err := <-done; err != nil {
			t.Fatalf("stress caller: %v", err)
		}
	}
}

// stressOnce is one Run of caller c at width 4: callers 0, 3, 6 cancel
// after 50 tasks, callers 1, 4, 7 panic at the last index.
func stressOnce(c int) (err error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer func() {
		if r := recover(); r != nil && (c%3 != 1 || r != "stress panic") {
			err = errors.New("unexpected panic")
		}
	}()
	var ran atomic.Int32
	e := Run(ctx, 4, 200, func(i int) {
		n := ran.Add(1)
		if c%3 == 0 && n == 50 {
			cancel()
		}
		if c%3 == 1 && i == 199 {
			panic("stress panic")
		}
	})
	if e != nil && !errors.Is(e, context.Canceled) {
		return e
	}
	if e == nil && int(ran.Load()) != 200 {
		return errors.New("Run returned nil before every task ran")
	}
	return nil
}
