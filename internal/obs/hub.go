package obs

import (
	"sync"
	"sync/atomic"
)

// Hub is the fleet-level telemetry collector: many concurrently
// simulated devices each get a Tracer from Device and emit into it from
// their own goroutines, and the Hub turns everything into per-device
// run statistics and fleet rollup metrics.
//
// Every event is folded into its device's statistics as it is emitted,
// on the emitting goroutine, by the same fold Collect runs over a
// recorded slice; no event is kept. Power cycles are not kept either:
// each final cycle is folded into the device's run/power_cycles count
// and cycle_utilization histogram, so a device's Stats().Cycles is
// empty. Memory is therefore O(layers) per device, however long the run
// — rather than every event or every cycle. A caller that needs the raw
// events or cycles — a trace, a budget audit — records or streams them
// with its own tracer and runs Collect.
//
// Ownership model: each device is fed by one goroutine at a time, which
// is then the only writer of that device's statistics, so the emit path
// takes no lock and allocates nothing in steady state. Device
// registration is the only mutex-guarded operation.
//
// Producers own the shutdown edge: Close may only be called after every
// goroutine that emits into the Hub has finished (join them with the
// usual sync.WaitGroup first). Close freezes per-device statistics; the
// per-device accessors (Stats, Metrics) and Rollup are valid only after
// Close.
type Hub struct {
	mu     sync.Mutex
	devs   []*HubDevice
	closed atomic.Bool
}

// HubDevice is one device's private lane into the Hub. It implements
// Tracer; hand it to an Engine, CostSim or power.Sim as their trace
// sink. It holds O(layers) memory: per-layer statistics, totals, and
// its power cycles folded into a count and a utilization histogram.
type HubDevice struct {
	Name string

	hub   *Hub
	c     collector // written only by the goroutine feeding the device
	stats *RunStats
	m     *Metrics
}

// NewHub returns an empty Hub. The argument is unused: events are
// folded on the goroutine that emits them, so there is nothing to size.
func NewHub(int) *Hub { return &Hub{} }

// Device registers a device and returns its tracer lane. names, the
// device's layer-name table, is unused: the Hub keeps no events to
// render.
func (h *Hub) Device(name string, names []string) *HubDevice {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed.Load() {
		panic("obs: Hub.Device after Close")
	}
	d := &HubDevice{Name: name, hub: h, c: newCollector(false)}
	h.devs = append(h.devs, d)
	return d
}

// Enabled implements Tracer.
//
//iprune:hotpath
func (d *HubDevice) Enabled() bool { return !d.hub.closed.Load() }

// Emit implements Tracer: the event is folded into the device's
// statistics on the calling goroutine, with no lock and no allocation
// once the device's layers are in place.
// Events emitted after Close are dropped; racing an Emit against Close
// violates the Hub's shutdown contract (producers must be joined first).
//
//iprune:hotpath
func (d *HubDevice) Emit(ev Event) {
	if !d.hub.closed.Load() {
		d.c.add(&ev)
	}
}

// Close shuts the Hub down and freezes per-device statistics and
// metrics. Idempotent. All producers must have finished emitting before
// Close is called.
func (h *Hub) Close() {
	if h.closed.Swap(true) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, d := range h.devs {
		d.stats = d.c.finish()
		d.m = NewMetrics()
		d.stats.Fill(d.m)
		// Fill found no cycles in the stats; add the folded ones.
		d.m.Counter("run/power_cycles").AddInt(d.c.cycles)
		d.m.Histogram(d.c.util.Name, d.c.util.Bounds).Merge(&d.c.util)
	}
}

// Stats returns the device's collected run statistics (nil before
// Close): layers, totals and the event count, with Cycles empty — the
// device's metrics hold its power cycles.
func (d *HubDevice) Stats() *RunStats { return d.stats }

// Metrics returns the device's own metrics registry (nil before Close).
func (d *HubDevice) Metrics() *Metrics { return d.m }

// Devices returns the registered devices in registration order.
func (h *Hub) Devices() []*HubDevice {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*HubDevice(nil), h.devs...)
}

// Rollup merges every device's metrics registry into one fleet-level
// registry: counters add, histograms merge bucket-wise, so the fleet
// view keeps real tails (Histogram.Quantile), not averages of
// averages. Valid only after Close.
func (h *Hub) Rollup() *Metrics {
	m := NewMetrics()
	for _, d := range h.Devices() {
		if d.m != nil {
			m.Merge(d.m)
		}
	}
	return m
}
