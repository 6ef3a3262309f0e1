package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ms converts a host duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, as (value, percentile). With ten or fewer samples no such
// percentile exists and the maximum (p100) is returned instead.
func tail(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return s[n-1], 100
	}
	k := n - 11 // s[k] has exactly ten samples above it
	return s[k], 100 * float64(k+1) / float64(n)
}

// geomean returns the geometric mean of positive values; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean returns the arithmetic mean; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// peakRSSMB returns the peak resident set size of this process in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// host identifies the machine a result was measured on, so numbers from
// different hosts are never compared.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func fingerprint() host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostSpeed is a reading of how fast the host runs: the time of a fixed
// CPU-bound loop and the kernel's CPU-time counters. A run prints one
// reading from before set-up and one from after its last op. They are
// not metrics: they tell a slower host apart from slower code.
type hostSpeed struct {
	calibMS      float64 // median time of calibReps runs of calibLoop
	steal, total float64 // /proc/stat jiffies: stolen by the hypervisor, and all
}

const calibReps = 9

var calibSink float64

// calibLoop is a fixed throughput-bound float loop over L1-resident
// arrays, the shape of the tensor kernels' inner loops. On a shared
// 2-vCPU VM its time switched between two levels about 2x apart while
// steal stayed under 1% and a latency-bound loop kept its speed, as
// when another tenant shares the physical core.
func calibLoop() {
	var a, b [512]float64
	for i := range a {
		a[i], b[i] = float64(i)*1e-3, 1
	}
	for r := 0; r < 20000; r++ {
		for j := range b {
			b[j] = b[j]*0.5 + a[j]*1.0000001
		}
	}
	calibSink += b[7]
}

func readHostSpeed() hostSpeed {
	times := make([]float64, calibReps)
	for k := range times {
		t0 := time.Now()
		calibLoop()
		times[k] = ms(time.Since(t0))
	}
	h := hostSpeed{calibMS: median(times)}
	h.steal, h.total = readStat()
	return h
}

// readStat returns the steal and total jiffies of the cpu line of
// /proc/stat, or zeros where it cannot be read.
func readStat() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealShare is the share of all CPU time between two readings that the
// hypervisor gave to other guests.
func stealShare(a, b hostSpeed) float64 {
	if d := b.total - a.total; d > 0 {
		return (b.steal - a.steal) / d
	}
	return 0
}

// span is one timed call the benchmark made into a layer.
type span struct {
	name       string
	op         int // the measured op it belongs to, -1 in set-up
	parent     int // index of the enclosing span, -1 at the top
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer records spans in memory around the benchmark's own calls into
// the program. A nil *tracer records nothing, so untraced ops share the
// code of traced ones at the cost of one nil check per call.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: time.Since(t.t0)})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open one, and returns
// its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	t.spans[id].end = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
	return t.spans[id].dur()
}

// timed runs fn inside a span and returns its duration. It measures even
// on a nil tracer.
func (t *tracer) timed(name string, fn func()) time.Duration {
	if t == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	id := t.begin(name)
	fn()
	return t.end(id)
}

// durs returns the durations of every span called name, in ms.
func (t *tracer) durs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes returns each span's duration minus the time its direct
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// writeSummary prints per-name span counts, total and self time.
func (t *tracer) writeSummary(w io.Writer) {
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	var names []string
	self := t.selfTimes()
	for i, s := range t.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
			names = append(names, s.name)
		}
		a.n++
		a.total += s.dur()
		a.self += self[i]
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans: %d recorded\n", len(t.spans))
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "  %-28s n=%-6d total=%10.1fms self=%10.1fms\n", n, a.n, ms(a.total), ms(a.self))
	}
}

// runtimeSample reads the allocation and CPU counters behind the runtime
// per-layer metrics.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	busyCPU    float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), busyCPU: val(2) - val(3)}
}

// cpuPackages maps each cpu.<name> per-layer metric to the import-path
// prefixes whose flat CPU time it sums.
var cpuPackages = []struct {
	metric   string
	prefixes []string
}{
	{"cpu.fleet", []string{"iprune/internal/fleet"}},
	{"cpu.hawaii", []string{"iprune/internal/hawaii"}},
	{"cpu.power", []string{"iprune/internal/power"}},
	{"cpu.obs", []string{"iprune/internal/obs"}},
	{"cpu.quant", []string{"iprune/internal/quant"}},
	{"cpu.fixed", []string{"iprune/internal/fixed"}},
	{"cpu.tensor", []string{"iprune/internal/tensor"}},
	{"cpu.nn", []string{"iprune/internal/nn"}},
	{"cpu.core", []string{"iprune/internal/core"}},
	{"cpu.search", []string{"iprune/internal/search"}},
	{"cpu.tile", []string{"iprune/internal/tile"}},
	{"cpu.analysis", []string{"iprune/internal/analysis"}},
	{"cpu.gotypes", []string{"go/types", "go/parser", "go/scanner", "go/constant", "go/internal/srcimporter", "go/build"}},
	{"cpu.runtime", []string{"runtime", "internal/runtime"}},
}

// funcPackage returns the import path of a symbol as pprof prints it,
// e.g. "iprune/internal/hawaii.(*CostSim).RunWithSim" → "iprune/internal/hawaii".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares reads a CPU profile with the installed `go tool pprof` and
// returns each cpu.<name> metric's share of all flat samples.
func cpuShares(goBin, profile string) (map[string]float64, error) {
	out, err := exec.Command(goBin, "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ms", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	flat := map[string]float64{}
	total := 0.0
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == "flat" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		total += v
		flat[funcPackage(f[5])] += v
	}
	shares := map[string]float64{}
	for _, c := range cpuPackages {
		sum := 0.0
		for pkg, v := range flat {
			for _, p := range c.prefixes {
				if pkg == p || strings.HasPrefix(pkg, p+"/") {
					sum += v
				}
			}
		}
		if total > 0 {
			shares[c.metric] = sum / total
		} else {
			shares[c.metric] = 0
		}
	}
	return shares, nil
}

// goTool locates the go command that built this benchmark.
func goTool() string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	return filepath.Join(runtime.GOROOT(), "bin", "go")
}
