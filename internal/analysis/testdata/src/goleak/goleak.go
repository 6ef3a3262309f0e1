// Package fixture exercises the goleak analyzer: goroutines with no
// reachable termination path, range-over-unclosed-channel leaks,
// double-close and send-after-close panics, hot-path sends with no
// receiver, and the allow-conc suppression path.
package fixture

import "context"

// Shape 1: infinite loop with no exit — the goroutine can never stop.
func SpinForever() {
	go func() { // want `goroutine spawned here never terminates: the loop at .* has no reachable return or break`
		for {
		}
	}()
}

var leakCh = make(chan int)

// Shape 2: ranging over a channel nothing in the module closes.
func RangeUnclosed() {
	go func() { // want `goroutine spawned here never terminates: it ranges over leakCh but nothing in the module closes it`
		for range leakCh {
		}
	}()
}

var drainCh = make(chan int)

// Ranging is fine when the module provably closes the channel.
func RangeClosed() {
	go func() {
		for v := range drainCh {
			_ = v
		}
	}()
	close(drainCh)
}

// A select loop with a reachable exit terminates.
func SelectWithDone(ctx context.Context, work chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case v := <-work:
				_ = v
			}
		}
	}()
}

// An unlabeled break inside a select binds to the select, not the loop:
// this goroutine spins forever even though it says "break".
func SelectBreakOnly(work chan int) {
	go func() { // want `goroutine spawned here never terminates: the loop at .* has no reachable return or break`
		for {
			select {
			case v := <-work:
				_ = v
				break
			}
		}
	}()
}

// Spawning a named worker resolves the declaration; the channel
// parameter is aliased to the spawn-site argument, so the close of
// feedCh below is evidence that the worker's range loop ends.
func SpawnNamed() {
	go pump(feedCh)
	close(feedCh)
}

var feedCh = make(chan int)

func pump(ch chan int) {
	for v := range ch {
		_ = v
	}
}

// Shape 3: closing a channel a prior close reaches panics.
func DoubleClose(done bool) {
	ch := make(chan int)
	close(ch)
	if done {
		close(ch) // want `close\(ch\) may close an already-closed channel`
	}
}

// Reassigning the variable makes it a fresh, open channel.
func CloseReopenClose() {
	ch := make(chan int)
	close(ch)
	ch = make(chan int)
	close(ch)
}

// Shape 4: sending after a close reaches the send panics.
func SendAfterClose() {
	ch := make(chan int, 1)
	close(ch)
	ch <- 1 // want `send on ch after close\(ch\) reaches it`
}

// A close on only one branch still reaches the send on that path.
func SendAfterBranchClose(early bool) {
	ch := make(chan int, 1)
	if early {
		close(ch)
	}
	ch <- 1 // want `send on ch after close\(ch\) reaches it`
}

var orphanCh = make(chan int, 8)

// Shape 5: a hot-path send with no receiver anywhere in the module.
//
//iprune:hotpath
func HotSendNoReceiver(v int) {
	orphanCh <- v // want `hotpath send on orphanCh but no statement in the module receives from it`
}

var metricsCh = make(chan int, 8)

// A hot-path send is fine when the module has a consumer.
//
//iprune:hotpath
func HotSendWithReceiver(v int) {
	metricsCh <- v
}

func consumeMetrics() {
	for range metricsCh {
	}
}

var auditCh = make(chan int)

// Suppression: a reasoned allow-conc silences the finding.
//
//iprune:hotpath
func HotSendSuppressed(v int) {
	auditCh <- v //iprune:allow-conc fixture: external consumer attaches in tests
}

// Code after a return runs on no path: its close reaches no send.
func DeadCloseSend() {
	ch := make(chan int, 1)
	return
	close(ch)
	ch <- 1
}
