package obs

import "sort"

// LayerStat aggregates the events of one layer (or, for Total, the whole
// run). Latency and Energy come from KindLayerEnd events and therefore
// include charging dead-time and recovery incurred inside the layer —
// summing them over all layers reproduces the run's aggregate latency
// and energy exactly.
type LayerStat struct {
	Layer     int   // layer index (-1 for Total)
	Ops       int64 // committed accelerator ops
	Starts    int64 // op attempts issued (Starts-Ops were lost to failures)
	ReExec    int64 // re-executed ops after failures
	Failures  int64 // power failures attributed to the layer
	Preserves int64 // preservation writes
	Latency   float64
	Energy    float64
	Read      int64 // NVM bytes read
	Write     int64 // NVM bytes written
}

// CycleStat is one power cycle: the device-on span ending in a
// power-off, plus the charging dead-time that followed it (0 for the
// final cycle of a run).
type CycleStat struct {
	Start   float64 // power-on time
	OnTime  float64 // powered span
	OffTime float64 // subsequent charging dead-time
	// Energy is the measured draw of the cycle: the sum of op-commit,
	// preserve, recovery and failure event energies stamped inside it.
	// Layer-end events are excluded — they carry rollups of the same
	// draws and would double-count. This is what the budget audit
	// (energy.AuditTrace) checks against the static bounds.
	Energy float64
}

// Utilization returns the fraction of the cycle's wall-clock the device
// was powered.
func (c *CycleStat) Utilization() float64 {
	total := c.OnTime + c.OffTime
	if total <= 0 {
		return 0
	}
	return c.OnTime / total
}

// RunStats is the per-layer / per-power-cycle aggregation of one
// recorded run.
type RunStats struct {
	Layers []LayerStat // sorted by layer index
	// Cycles lists the power cycles in time order. Collect keeps them; a
	// Hub device folds each into its metrics instead, and its Stats
	// leave Cycles empty.
	Cycles []CycleStat
	Total  LayerStat // aggregate over all layers
	Events int       // events collected
}

// Collect aggregates a recorded event stream into per-layer and
// per-power-cycle statistics. Events without a layer of their own
// (power events emitted by the supply simulator) are attributed to the
// layer that was executing when they occurred.
func Collect(events []Event) *RunStats {
	c := newCollector(true)
	for i := range events {
		c.add(&events[i])
	}
	return c.finish()
}

// collector is the one fold from an event stream to RunStats, fed one
// event at a time: Collect runs it over a recorded slice, and a
// HubDevice runs it on each event as it is emitted, so nothing but the
// statistics is kept.
type collector struct {
	s RunStats
	// keep appends each final power cycle to s.Cycles (Collect); without
	// it (a Hub device) the cycle is counted in cycles and observed in
	// util, so memory stays O(layers) however long the run.
	keep   bool
	cycles int64
	util   Histogram
	cur    int // layer of the last layer-start, -1 before any
	at     int // position in s.Layers of the last layer looked up, -1 before any

	cycleStart, cycleEnergy, lastT float64
	inCycle                        bool
	// last is the last closed power cycle. It is final only once the
	// next one closes or the fold ends: the charge that follows its
	// power-off still adds to it.
	last    CycleStat
	hasLast bool
}

func newCollector(keep bool) collector {
	c := collector{keep: keep, cur: -1, at: -1}
	if !keep {
		c.util = Histogram{
			Name:   "cycle_utilization",
			Bounds: UtilizationBuckets,
			Counts: make([]int64, len(UtilizationBuckets)+1),
		}
	}
	return c
}

// layer returns the statistics of layer li, attributing layerless
// events (li < 0) to the executing layer, and events before the first
// layer boundary to a catch-all pseudo-layer -1 created only if needed.
// Nearly every event belongs to the layer of the one before it, so the
// last position looked up is tried first; otherwise the few layers are
// scanned.
//
//iprune:allow-budget the scan is bounded by the run's layer count; observability runs on the host, outside the device energy envelope
func (c *collector) layer(li int) *LayerStat {
	if li < 0 {
		li = c.cur
	}
	if li < 0 {
		li = -1
	}
	if c.at >= 0 && c.s.Layers[c.at].Layer == li {
		return &c.s.Layers[c.at]
	}
	c.at = -1
	for i := range c.s.Layers {
		if c.s.Layers[i].Layer == li {
			c.at = i
			break
		}
	}
	if c.at < 0 {
		c.at = len(c.s.Layers)
		c.s.Layers = append(c.s.Layers, LayerStat{Layer: li}) //iprune:allow-alloc once per layer, the first time the run reaches it
	}
	return &c.s.Layers[c.at]
}

// closeCycle makes cyc the last closed power cycle, which finalizes the
// one closed before it.
func (c *collector) closeCycle(cyc CycleStat) {
	if c.hasLast {
		c.final(&c.last)
	}
	c.last, c.hasLast = cyc, true
}

// final records a power cycle that no later event can change, in cycle
// order.
func (c *collector) final(cyc *CycleStat) {
	if c.keep {
		c.s.Cycles = append(c.s.Cycles, *cyc) //iprune:allow-alloc Collect keeps every cycle; a Hub device folds them
		return
	}
	c.cycles++
	c.util.Observe(cyc.Utilization())
}

// add folds one event into the statistics.
func (c *collector) add(ev *Event) {
	c.s.Events++
	// Track the run's end time for a trace cut off mid power-cycle.
	// Layer-end stamps its end time directly; span kinds stamp their
	// start, so the span end is Time+Dur.
	if t := ev.Time + ev.Dur; ev.Kind != KindLayerEnd && t > c.lastT {
		c.lastT = t
	} else if ev.Kind == KindLayerEnd && ev.Time > c.lastT {
		c.lastT = ev.Time
	}
	if c.inCycle {
		switch ev.Kind {
		case KindOpCommit, KindPreserve, KindRecovery, KindFailure:
			c.cycleEnergy += ev.Energy
		}
	}
	switch ev.Kind {
	case KindLayerStart:
		c.cur = ev.Layer
	case KindLayerEnd:
		l := c.layer(ev.Layer)
		l.Latency += ev.Dur
		l.Energy += ev.Energy
	case KindOpStart:
		c.layer(ev.Layer).Starts++
	case KindOpCommit:
		l := c.layer(ev.Layer)
		l.Ops++
		l.Read += ev.Read
		l.Write += ev.Write
	case KindPreserve:
		l := c.layer(ev.Layer)
		l.Preserves++
		l.Read += ev.Read
		l.Write += ev.Write
	case KindFailure:
		c.layer(ev.Layer).Failures++
	case KindRecovery:
		c.layer(ev.Layer).Read += ev.Read
	case KindReExec:
		c.layer(ev.Layer).ReExec++
	case KindPowerOn:
		c.cycleStart = ev.Time
		c.cycleEnergy = 0
		c.inCycle = true
	case KindPowerOff:
		if c.inCycle {
			c.closeCycle(CycleStat{
				Start:  c.cycleStart,
				OnTime: ev.Time - c.cycleStart,
				Energy: c.cycleEnergy,
			})
			c.inCycle = false
		}
	case KindCharge:
		if c.hasLast {
			c.last.OffTime += ev.Dur
		}
	}
}

// finish closes the fold: a power cycle still open is closed at the last
// stamped event time, the last cycle is final, layers are sorted and the
// totals summed. The returned statistics alias the collector, which
// takes no more events.
func (c *collector) finish() *RunStats {
	s := &c.s
	if c.inCycle {
		// The trace was cut off mid power-cycle (an aborted run, or a
		// stream truncated by the caller): close the partial cycle at the
		// last stamped event time so its work is still accounted for.
		c.closeCycle(CycleStat{
			Start:  c.cycleStart,
			OnTime: c.lastT - c.cycleStart,
			Energy: c.cycleEnergy,
		})
	}
	if c.hasLast {
		c.final(&c.last)
	}
	sort.Slice(s.Layers, func(i, j int) bool { return s.Layers[i].Layer < s.Layers[j].Layer })
	s.Total = LayerStat{Layer: -1}
	for i := range s.Layers {
		l := &s.Layers[i]
		s.Total.Ops += l.Ops
		s.Total.Starts += l.Starts
		s.Total.ReExec += l.ReExec
		s.Total.Failures += l.Failures
		s.Total.Preserves += l.Preserves
		s.Total.Latency += l.Latency
		s.Total.Energy += l.Energy
		s.Total.Read += l.Read
		s.Total.Write += l.Write
	}
	return s
}

// Fill registers the run's statistics in a metrics registry: run-level
// counters plus the per-layer latency/energy, power-cycle-utilization
// and re-execution histograms the paper's analysis calls for. The cycle
// metrics come from s.Cycles, which a Hub device leaves empty: the device
// adds the cycles it folded to its metrics itself.
func (s *RunStats) Fill(m *Metrics) {
	m.Counter("run/ops").AddInt(s.Total.Ops)
	m.Counter("run/op_attempts").AddInt(s.Total.Starts)
	m.Counter("run/reexec_ops").AddInt(s.Total.ReExec)
	m.Counter("run/failures").AddInt(s.Total.Failures)
	m.Counter("run/preserve_writes").AddInt(s.Total.Preserves)
	m.Counter("run/power_cycles").AddInt(int64(len(s.Cycles)))
	m.Counter("run/latency_s").Add(s.Total.Latency)
	m.Counter("run/energy_j").Add(s.Total.Energy)
	m.Counter("run/nvm_read_bytes").AddInt(s.Total.Read)
	m.Counter("run/nvm_write_bytes").AddInt(s.Total.Write)
	if s.Total.Ops > 0 {
		m.Counter("run/reexec_ratio").Add(float64(s.Total.ReExec) / float64(s.Total.Ops))
	}
	lh := m.Histogram("layer_latency_s", LatencyBuckets)
	eh := m.Histogram("layer_energy_j", EnergyBuckets)
	for i := range s.Layers {
		lh.Observe(s.Layers[i].Latency)
		eh.Observe(s.Layers[i].Energy)
	}
	uh := m.Histogram("cycle_utilization", UtilizationBuckets)
	for i := range s.Cycles {
		uh.Observe(s.Cycles[i].Utilization())
	}
}
