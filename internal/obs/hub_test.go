package obs

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// deviceRun emits a synthetic run of n op commits into tr, stamped in
// seconds/joules so per-cycle energy and utilization are exercised end
// to end: the buffer empties after every 16th op, and each power cycle
// is followed by a charge of its own length, so cycles differ in
// utilization.
func deviceRun(tr Tracer, n int) {
	t := 0.0
	tr.Emit(Event{Kind: KindPowerOn, Time: t, Layer: -1, Op: -1})
	tr.Emit(Event{Kind: KindLayerStart, Time: t, Layer: 0})
	for op := 0; op < n; op++ {
		if op > 0 && op%16 == 0 {
			off := 0.25 * float64(op%3+1)
			tr.Emit(Event{Kind: KindFailure, Time: t, Layer: -1, Op: -1, Energy: 1e-7})
			tr.Emit(Event{Kind: KindPowerOff, Time: t, Layer: -1, Op: -1})
			tr.Emit(Event{Kind: KindCharge, Time: t, Dur: off, Layer: -1, Op: -1})
			t += off
			tr.Emit(Event{Kind: KindPowerOn, Time: t, Layer: -1, Op: -1})
		}
		tr.Emit(Event{Kind: KindOpStart, Time: t, Layer: 0, Op: int64(op)})
		tr.Emit(Event{Kind: KindOpCommit, Time: t, Dur: 0.5, Layer: 0, Op: int64(op), Energy: 1e-6, Read: 64})
		t += 0.5
		tr.Emit(Event{Kind: KindPreserve, Time: t, Layer: 0, Op: int64(op), Write: 32})
	}
	tr.Emit(Event{Kind: KindLayerEnd, Time: t, Dur: t, Layer: 0, Energy: float64(n) * 1e-6})
	tr.Emit(Event{Kind: KindPowerOff, Time: t, Layer: -1, Op: -1})
}

// emitCycle emits one whole power cycle into tr at *now and advances
// it: power-on, an op attempt that commits and preserves, a second that
// the buffer's failure cuts off with its power-off, and the charge.
func emitCycle(tr Tracer, now *float64) {
	t := *now
	tr.Emit(Event{Kind: KindPowerOn, Time: t, Layer: -1, Op: -1})
	tr.Emit(Event{Kind: KindOpStart, Time: t, Layer: 0, Op: 1})
	tr.Emit(Event{Kind: KindOpCommit, Time: t, Dur: 0.5, Layer: 0, Op: 1, Energy: 1e-6, Read: 64})
	tr.Emit(Event{Kind: KindPreserve, Time: t + 0.5, Layer: 0, Op: 1, Write: 32})
	tr.Emit(Event{Kind: KindOpStart, Time: t + 0.5, Layer: 0, Op: 2})
	tr.Emit(Event{Kind: KindFailure, Time: t + 1, Layer: -1, Op: -1, Energy: 1e-6})
	tr.Emit(Event{Kind: KindPowerOff, Time: t + 1, Layer: -1, Op: -1})
	tr.Emit(Event{Kind: KindCharge, Time: t + 1, Dur: 2, Layer: -1, Op: -1})
	*now = t + 3
}

// dumpMetrics renders every counter and histogram of m in registration
// order, floats in their shortest round-trip form, so two registries
// render alike only if they match bit for bit.
func dumpMetrics(m *Metrics) string {
	var b strings.Builder
	for _, c := range m.Counters() {
		fmt.Fprintf(&b, "%s=%v\n", c.Name, c.Value())
	}
	for _, h := range m.Histograms() {
		fmt.Fprintf(&b, "%s %v %v sum=%v n=%d\n", h.Name, h.Bounds, h.Counts, h.Sum, h.N)
	}
	return b.String()
}

// TestHubConcurrentDevices is the -race workout of the Hub's ownership
// model: many devices emitting concurrently from their own goroutines,
// each folded into per-device stats and metrics that must equal Collect
// (and Fill over it) for the same events emitted sequentially, plus one
// fleet rollup. A device keeps no power cycles: they are in its metrics.
func TestHubConcurrentDevices(t *testing.T) {
	const devices, opsEach = 8, 50
	h := NewHub(3)
	devs := make([]*HubDevice, devices)
	for i := range devs {
		devs[i] = h.Device(fmt.Sprintf("dev%d", i), []string{"conv"})
	}
	var wg sync.WaitGroup
	for _, d := range devs {
		wg.Add(1)
		go func(d *HubDevice) {
			defer wg.Done()
			deviceRun(d, opsEach)
		}(d)
	}
	wg.Wait()
	h.Close()

	rec := NewRecorder()
	deviceRun(rec, opsEach)
	want := Collect(rec.Events())
	wantM := NewMetrics()
	want.Fill(wantM)
	if len(want.Cycles) != 4 || want.Cycles[0].OnTime != 8 || want.Cycles[0].OffTime != 0.5 {
		t.Fatalf("fixture: cycles %+v, want 4 starting with 8 s on, 0.5 s off", want.Cycles)
	}
	for _, d := range devs {
		s := d.Stats()
		if s == nil {
			t.Fatalf("%s: no stats after Close", d.Name)
		}
		// Equality with the sequential fold pins emission order too: a
		// reordered stream would move the power cycles' bounds, and so
		// their utilization buckets and sum.
		if !reflect.DeepEqual(s.Layers, want.Layers) || s.Total != want.Total || s.Events != want.Events {
			t.Errorf("%s: stats %+v, want %+v", d.Name, s, want)
		}
		if len(s.Cycles) != 0 {
			t.Errorf("%s: hub device kept %d power cycles, want none", d.Name, len(s.Cycles))
		}
		if got, w := dumpMetrics(d.Metrics()), dumpMetrics(wantM); got != w {
			t.Errorf("%s: metrics\n%s\nwant Fill(Collect(events))\n%s", d.Name, got, w)
		}
	}

	roll := h.Rollup()
	if got := roll.Counter("run/ops").Value(); got != devices*opsEach {
		t.Errorf("rollup ops = %g, want %d", got, devices*opsEach)
	}
	if got := roll.Counter("run/power_cycles").Value(); got != 4*devices {
		t.Errorf("rollup power cycles = %g, want %d", got, 4*devices)
	}
	// The fleet histogram holds every device's observations, so its
	// quantiles are real tails, not averages of averages.
	var hist *Histogram
	for _, hh := range roll.Histograms() {
		if hh.Name == "layer_latency_s" {
			hist = hh
		}
	}
	if hist == nil || hist.N != devices {
		t.Fatalf("rollup layer_latency_s has N=%v, want %d", hist, devices)
	}
}

func TestHubLifecycle(t *testing.T) {
	h := NewHub(0) // the argument is unused
	d := h.Device("only", nil)
	if !d.Enabled() {
		t.Error("device disabled before Close")
	}
	deviceRun(d, 1)
	h.Close()
	h.Close() // idempotent
	if d.Enabled() {
		t.Error("device still enabled after Close")
	}
	n := d.Stats().Events
	d.Emit(Event{Kind: KindOpCommit}) // dropped, not folded
	if d.Stats().Events != n || d.Stats().Total.Ops != 1 {
		t.Error("emit after Close was not dropped")
	}
	defer func() {
		if recover() == nil {
			t.Error("Device after Close must panic")
		}
	}()
	h.Device("late", nil)
}

// TestHubCloseDrainsBufferedEvents pins that Close is a drain, not a
// discard: every event emitted before Close is in the frozen stats.
func TestHubCloseDrainsBufferedEvents(t *testing.T) {
	h := NewHub(2)
	d := h.Device("drain", nil)
	const n = 100
	for i := 0; i < n; i++ {
		d.Emit(Event{Kind: KindOpCommit, Time: float64(i)})
	}
	h.Close()
	if d.Stats() == nil || d.Metrics() == nil {
		t.Fatal("Stats/Metrics nil after Close")
	}
	if got := d.Stats().Events; got != n {
		t.Fatalf("folded %d events, want %d (Close dropped emitted events)", got, n)
	}
	if got := d.Metrics().Counter("run/ops").Value(); got != n {
		t.Fatalf("run/ops = %g, want %d", got, n)
	}
}

// TestHubEmitAfterCloseDroppedAcrossShards pins the post-Close drop on a
// hub with many devices: an emit after shutdown must not write to any
// device's frozen statistics, even while another goroutine reads them
// (-race checks the no-write half).
func TestHubEmitAfterCloseDroppedAcrossShards(t *testing.T) {
	h := NewHub(4)
	var devs []*HubDevice
	for i := 0; i < 8; i++ {
		devs = append(devs, h.Device(string(rune('a'+i)), nil))
	}
	for _, d := range devs {
		deviceRun(d, 2)
	}
	h.Close()
	want := make([]int, len(devs))
	for i, d := range devs {
		want[i] = d.Stats().Events
	}
	var wg sync.WaitGroup
	for _, d := range devs {
		wg.Add(1)
		go func(d *HubDevice) {
			defer wg.Done()
			d.Emit(Event{Kind: KindFailure}) // must neither panic nor write
		}(d)
	}
	for i, d := range devs {
		if d.Stats().Events != want[i] {
			t.Errorf("%s: emit after Close was folded", d.Name)
		}
	}
	wg.Wait()
	for i, d := range devs {
		if d.Stats().Events != want[i] || d.Stats().Total.Failures != 0 {
			t.Fatalf("%s: emit after Close was folded", d.Name)
		}
	}
}

// TestHubAccessorsNilBeforeClose pins that per-device statistics are a
// Close-time product: reading them mid-run returns nil rather than a
// torn snapshot.
func TestHubAccessorsNilBeforeClose(t *testing.T) {
	h := NewHub(1)
	d := h.Device("early", nil)
	deviceRun(d, 3)
	if d.Stats() != nil || d.Metrics() != nil {
		t.Error("Stats/Metrics non-nil before Close")
	}
	h.Close()
	if d.Stats() == nil || d.Metrics() == nil {
		t.Error("Stats/Metrics nil after Close")
	}
}

// TestHubEmitZeroAlloc pins the emit path at zero allocations once the
// device's layer and power cycle exist: every kind that does not open a
// new layer or close a power cycle folds in place.
func TestHubEmitZeroAlloc(t *testing.T) {
	h := NewHub(1)
	d := h.Device("steady", nil)
	d.Emit(Event{Kind: KindPowerOn, Layer: -1, Op: -1})
	d.Emit(Event{Kind: KindLayerStart, Layer: 0})
	evs := []Event{
		{Kind: KindOpStart, Layer: 0, Op: 1},
		{Kind: KindOpCommit, Dur: 0.5, Layer: 0, Op: 1, Energy: 1e-6, Read: 64},
		{Kind: KindPreserve, Layer: 0, Op: 1, Write: 32},
		{Kind: KindFailure, Layer: -1, Op: -1},
		{Kind: KindRecovery, Dur: 1e-3, Layer: -1, Op: -1, Read: 16},
		{Kind: KindReExec, Layer: 0, Op: 1},
		{Kind: KindCharge, Dur: 0.1, Layer: -1, Op: -1},
		{Kind: KindLayerEnd, Dur: 1, Layer: 0, Energy: 1e-5},
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, ev := range evs {
			d.Emit(ev)
		}
	})
	if allocs != 0 {
		t.Errorf("HubDevice.Emit allocates %.1f times per batch in steady state, want 0", allocs)
	}
	h.Close()
}

// TestHubEmitCyclesZeroAlloc pins the emit path at zero allocations over
// whole power cycles: a device folds each closed cycle into its count
// and utilization histogram instead of keeping it, so a run of any
// length allocates nothing after its layers exist.
func TestHubEmitCyclesZeroAlloc(t *testing.T) {
	// One measured run of many cycles: AllocsPerRun rounds the mean
	// down, so amortized growth spread over many short runs would read 0.
	const cycles = 10000
	h := NewHub(0)
	d := h.Device("cycles", nil)
	d.Emit(Event{Kind: KindLayerStart, Layer: 0})
	now := 0.0
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < cycles; i++ {
			emitCycle(d, &now)
		}
	})
	if allocs != 0 {
		t.Errorf("HubDevice.Emit allocates %.0f times over %d power cycles, want 0", allocs, cycles)
	}
	h.Close()
	// AllocsPerRun runs the function once more to warm up.
	if got := d.Metrics().Counter("run/power_cycles").Value(); got != 2*cycles {
		t.Errorf("run/power_cycles = %g, want %d", got, 2*cycles)
	}
}

// BenchmarkHubEmit measures the producer-side emit path over one whole
// power cycle per op (emitCycle's eight events): one closed-flag load
// and one fold step per event on the emitting goroutine — no channel,
// no lock, no allocation, and no memory that grows with the cycles.
func BenchmarkHubEmit(b *testing.B) {
	h := NewHub(1)
	d := h.Device("bench", nil)
	d.Emit(Event{Kind: KindLayerStart, Layer: 0})
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emitCycle(d, &now)
	}
	b.StopTimer()
	h.Close()
}
