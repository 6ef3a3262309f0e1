package obs

import "sort"

// Counter is a named monotonically-growing metric. Values are float64 so
// one type covers both event counts and integrated seconds/joules; the
// AddInt entry point keeps the float conversion inside this package so
// Q15-pure callers (tile, hawaii) never write float arithmetic.
type Counter struct {
	Name string
	val  float64
}

// Add increases the counter.
func (c *Counter) Add(v float64) { c.val += v }

// AddInt increases the counter by an integer amount.
func (c *Counter) AddInt(v int64) { c.val += float64(v) }

// Value returns the current value.
func (c *Counter) Value() float64 { return c.val }

// Histogram is a fixed-bucket histogram: Bounds[i] is the inclusive
// upper bound of bucket i, and one extra overflow bucket catches
// everything above the last bound. Buckets are fixed at creation so
// observation never allocates.
type Histogram struct {
	Name   string
	Bounds []float64
	Counts []int64 // len(Bounds)+1; the last bucket is overflow
	Sum    float64
	N      int64
}

// Observe records one value.
//
//iprune:hotpath
//iprune:allow-budget the bucket scan is bounded by the histogram's configured bucket count; observability runs on the host, outside the device energy envelope
func (h *Histogram) Observe(v float64) {
	h.Sum += v
	h.N++
	for i, b := range h.Bounds {
		if v <= b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Bounds)]++
}

// Mean returns the mean of the observed values (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Merge folds other's observations into h. Both histograms must share
// the same bucket bounds — merging across shapes would silently
// misattribute counts, so a mismatch panics like a malformed
// registration does.
func (h *Histogram) Merge(other *Histogram) {
	if len(other.Bounds) != len(h.Bounds) {
		panic("obs: cannot merge histograms with different bucket counts: " + h.Name)
	}
	for i, b := range h.Bounds {
		if other.Bounds[i] != b {
			panic("obs: cannot merge histograms with different bucket bounds: " + h.Name)
		}
	}
	for i, cnt := range other.Counts {
		h.Counts[i] += cnt
	}
	h.Sum += other.Sum
	h.N += other.N
}

// Quantile estimates the p-quantile (p in [0,1]) of the observed values
// by linear interpolation inside the bucket holding the target rank,
// Prometheus-style: the first bucket interpolates from 0 (the package's
// grids cover non-negative observables), and a rank landing in the
// overflow bucket reports the last finite bound — the histogram cannot
// see beyond it. Returns 0 when empty.
func (h *Histogram) Quantile(p float64) float64 {
	if h.N == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := float64(p * float64(h.N))
	var cum float64
	for i, cnt := range h.Counts {
		prev := cum
		cum += float64(cnt)
		if cum < rank || cnt == 0 {
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		return lo + (h.Bounds[i]-lo)*(rank-prev)/float64(cnt)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Metrics is a registry of counters and histograms. Lookups are
// get-or-create; enumeration preserves registration order so rendered
// tables are stable.
type Metrics struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
	corder   []string
	horder   []string
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (m *Metrics) Counter(name string) *Counter {
	if c, ok := m.counters[name]; ok {
		return c
	}
	c := &Counter{Name: name}
	m.counters[name] = c
	m.corder = append(m.corder, name)
	return c
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (bounds must be sorted ascending; later
// calls reuse the existing buckets and ignore the argument).
func (m *Metrics) Histogram(name string, bounds []float64) *Histogram {
	if h, ok := m.hists[name]; ok {
		return h
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be sorted ascending: " + name)
	}
	h := &Histogram{
		Name:   name,
		Bounds: append([]float64(nil), bounds...),
		Counts: make([]int64, len(bounds)+1),
	}
	m.hists[name] = h
	m.horder = append(m.horder, name)
	return h
}

// Counters returns all counters in registration order.
func (m *Metrics) Counters() []*Counter {
	out := make([]*Counter, len(m.corder))
	for i, name := range m.corder {
		out[i] = m.counters[name]
	}
	return out
}

// Merge folds every counter and histogram of other into m, creating
// missing entries with other's shape — the fleet-rollup primitive: each
// Hub device fills its own registry and Merge folds them into one.
func (m *Metrics) Merge(other *Metrics) {
	for _, c := range other.Counters() {
		m.Counter(c.Name).Add(c.Value())
	}
	for _, h := range other.Histograms() {
		m.Histogram(h.Name, h.Bounds).Merge(h)
	}
}

// Histograms returns all histograms in registration order.
func (m *Metrics) Histograms() []*Histogram {
	out := make([]*Histogram, len(m.horder))
	for i, name := range m.horder {
		out[i] = m.hists[name]
	}
	return out
}

// Default bucket bounds for the run-level histograms. The simulated
// latencies of the paper's workloads span ~1 ms (continuous) to tens of
// seconds (weak harvest), hence the wide geometric grids.
var (
	// LatencyBuckets covers per-layer latency in seconds.
	LatencyBuckets = []float64{1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 10, 60}
	// EnergyBuckets covers per-layer energy in joules.
	EnergyBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}
	// UtilizationBuckets covers power-cycle utilization (active time
	// over cycle wall-clock).
	UtilizationBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
)
