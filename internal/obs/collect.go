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
	Cycles []CycleStat // in time order
	Total  LayerStat   // aggregate over all layers
	Events int         // events collected
}

// Collect aggregates a recorded event stream into per-layer and
// per-power-cycle statistics. Events without a layer of their own
// (power events emitted by the supply simulator) are attributed to the
// layer that was executing when they occurred.
func Collect(events []Event) *RunStats {
	c := newCollector()
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
	s   RunStats
	idx map[int]int // layer index -> position in s.Layers
	cur int         // layer of the last layer-start, -1 before any

	cycleStart, cycleEnergy, lastT float64
	inCycle                        bool
}

func newCollector() collector { return collector{idx: map[int]int{}, cur: -1} }

// layer returns the statistics of layer li, attributing layerless
// events (li < 0) to the executing layer, and events before the first
// layer boundary to a catch-all pseudo-layer -1 created only if needed.
func (c *collector) layer(li int) *LayerStat {
	if li < 0 {
		li = c.cur
	}
	if li < 0 {
		li = -1
	}
	i, ok := c.idx[li]
	if !ok {
		i = len(c.s.Layers)
		c.idx[li] = i
		c.s.Layers = append(c.s.Layers, LayerStat{Layer: li})
	}
	return &c.s.Layers[i]
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
			c.s.Cycles = append(c.s.Cycles, CycleStat{
				Start:  c.cycleStart,
				OnTime: ev.Time - c.cycleStart,
				Energy: c.cycleEnergy,
			})
			c.inCycle = false
		}
	case KindCharge:
		if n := len(c.s.Cycles); n > 0 {
			c.s.Cycles[n-1].OffTime += ev.Dur
		}
	}
}

// finish closes the fold: a power cycle still open is closed at the last
// stamped event time, layers are sorted and the totals summed. The
// returned statistics alias the collector, which takes no more events.
func (c *collector) finish() *RunStats {
	s := &c.s
	if c.inCycle {
		// The trace was cut off mid power-cycle (an aborted run, or a
		// stream truncated by the caller): close the partial cycle at the
		// last stamped event time so its work is still accounted for.
		s.Cycles = append(s.Cycles, CycleStat{
			Start:  c.cycleStart,
			OnTime: c.lastT - c.cycleStart,
			Energy: c.cycleEnergy,
		})
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
// and re-execution histograms the paper's analysis calls for.
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
