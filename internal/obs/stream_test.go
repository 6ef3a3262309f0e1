package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// chromeEvent is one entry of the Chrome trace-event format, the subset
// Perfetto and chrome://tracing load: "X" complete spans, "i" instants
// and "M" thread-name metadata.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object container variant of the format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// refWriteChromeTrace is WriteChromeTrace as it was written before it
// became a replay through StreamTracer: an encoding/json encoder over the
// structs above, kept unchanged as the reference encoding the streaming
// encoder must reproduce byte for byte.
func refWriteChromeTrace(w io.Writer, events []Event, names []string) error {
	const us = 1e6
	ces := make([]chromeEvent, 0, len(events)+3)
	for _, meta := range []struct {
		tid  int
		name string
	}{{tidAccel, "accelerator"}, {tidLayers, "layers"}, {tidPower, "power"}} {
		ces = append(ces, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: meta.tid,
			Args: map[string]any{"name": meta.name},
		})
	}
	for i := range events {
		ev := &events[i]
		ce := chromeEvent{Name: ev.Kind.String(), Cat: ev.Kind.String(), Ph: "i", Ts: ev.Time * us, Pid: 1, S: "t"}
		switch ev.Kind {
		case KindPowerOn, KindPowerOff, KindFailure:
			ce.Tid = tidPower
			if ev.Kind == KindFailure {
				ce.S = "g"
				if ev.Energy != 0 {
					ce.Args = map[string]any{"lost_energy_j": ev.Energy}
				}
			}
		case KindCharge:
			ce.Tid = tidPower
			ce.Ph = "X"
			ce.Dur = ev.Dur * us
			ce.S = ""
		case KindOpStart, KindReExec:
			ce.Tid = tidAccel
			ce.Args = map[string]any{"op": ev.Op}
		case KindOpCommit:
			ce.Tid = tidAccel
			ce.Ph = "X"
			ce.Dur = ev.Dur * us
			ce.S = ""
			ce.Name = "op"
			ce.Args = map[string]any{"op": ev.Op, "layer": layerName(names, ev.Layer)}
			if ev.Energy != 0 {
				ce.Args["energy_j"] = ev.Energy
			}
			if ev.Read != 0 {
				ce.Args["read_bytes"] = ev.Read
			}
		case KindPreserve:
			ce.Tid = tidAccel
			ce.Args = map[string]any{"op": ev.Op, "write_bytes": ev.Write}
		case KindRecovery:
			ce.Tid = tidAccel
			ce.Ph = "X"
			ce.Dur = ev.Dur * us
			ce.S = ""
			ce.Args = map[string]any{"op": ev.Op, "refetch_bytes": ev.Read}
			if ev.Energy != 0 {
				ce.Args["energy_j"] = ev.Energy
			}
		case KindLayerStart:
			continue // the LayerEnd event renders the whole span
		case KindLayerEnd:
			ce.Tid = tidLayers
			ce.Ph = "X"
			ce.Ts = (ev.Time - ev.Dur) * us
			ce.Dur = ev.Dur * us
			ce.S = ""
			ce.Name = layerName(names, ev.Layer)
			if ev.Energy != 0 {
				ce.Args = map[string]any{"energy_j": ev.Energy}
			}
		default:
			ce.Tid = tidAccel
		}
		ces = append(ces, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: ces, DisplayTimeUnit: "ms"})
}

// adversarialRun extends the synthetic run with the encoder edge cases:
// tiny/huge floats (scientific notation), out-of-range and negative
// layer indices (name fallback), an unknown kind (default branch), and
// omitted optional args.
func adversarialRun() []Event {
	return append(syntheticRun(),
		Event{Kind: KindFailure, Time: 5, Layer: -1, Op: -1, Energy: 1e-9},
		Event{Kind: KindFailure, Time: 5.25, Layer: -1, Op: -1, Energy: 2.5e-7},
		Event{Kind: KindLayerEnd, Time: 6, Dur: 0.5, Layer: 7, Energy: 3e21},
		Event{Kind: KindLayerEnd, Time: 6, Dur: 0, Layer: -3},
		Event{Kind: KindOpCommit, Time: 6.5, Dur: 0.25, Layer: 1, Op: -1},
		Event{Kind: Kind(99), Time: 7, Layer: 0, Op: 3},
		Event{Kind: KindRecovery, Time: 7.5, Dur: 0.1, Layer: 0, Op: 4, Read: 0, Energy: -2e-4},
	)
}

// trickyNames exercises the string escaper: HTML characters, quotes,
// control characters, multi-byte runes, invalid UTF-8 and the JS line
// separators.
var trickyNames = []string{
	`fc<&>"esc"`,
	"tab\tnl\nπ→Σ",
	"bad\xffutf8",
	"sep\u2028mid\u2029end",
}

// TestStreamTracerByteIdentical pins the two encoders together:
// streaming a run event by event, and WriteChromeTrace's replay of the
// recorded slice, produce exactly the bytes the encoding/json reference
// renders, across every kind, float notation and string-escaping edge
// the encoders can disagree on.
func TestStreamTracerByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []Event
		names  []string
	}{
		{"synthetic", syntheticRun(), []string{"conv1", "fc1"}},
		{"adversarial", adversarialRun(), trickyNames},
		{"empty", nil, []string{"conv1"}},
		{"no-names", syntheticRun(), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want, replay bytes.Buffer
			if err := refWriteChromeTrace(&want, tc.events, tc.names); err != nil {
				t.Fatal(err)
			}
			if err := WriteChromeTrace(&replay, tc.events, tc.names); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(replay.Bytes(), want.Bytes()) {
				t.Errorf("WriteChromeTrace diverges from the reference\n got: %s\nwant: %s", replay.String(), want.String())
			}
			var got bytes.Buffer
			st := NewStreamTracer(&got, tc.names)
			if !st.Enabled() {
				t.Fatal("fresh StreamTracer must be enabled")
			}
			for _, ev := range tc.events {
				st.Emit(ev)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("stream output diverges from the reference\n got: %s\nwant: %s", got.String(), want.String())
			}
		})
	}
}

// TestChromeTraceRejectsNonFinite keeps encoding/json's contract: a NaN
// or infinite time, duration or energy has no JSON encoding, so the
// trace fails instead of writing an unparseable artifact.
func TestChromeTraceRejectsNonFinite(t *testing.T) {
	nan := math.NaN()
	for _, ev := range []Event{
		{Kind: KindOpCommit, Time: nan, Layer: 0},
		{Kind: KindCharge, Time: 1, Dur: math.Inf(1)},
		{Kind: KindFailure, Time: 1, Energy: math.Inf(-1)},
	} {
		events := append(syntheticRun(), ev)
		if err := refWriteChromeTrace(io.Discard, events, nil); err == nil {
			t.Fatalf("reference encoded %+v", ev)
		}
		if err := WriteChromeTrace(io.Discard, events, nil); err == nil {
			t.Errorf("WriteChromeTrace encoded %+v", ev)
		}
	}
}

// TestStreamTracerEarlyClose is the crash-mid-stream contract: any
// prefix of emissions followed by the deferred Close parses as a
// complete Chrome trace.
func TestStreamTracerEarlyClose(t *testing.T) {
	events := adversarialRun()
	for k := 0; k <= len(events); k++ {
		var buf bytes.Buffer
		st := NewStreamTracer(&buf, trickyNames)
		for _, ev := range events[:k] {
			st.Emit(ev)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close after %d events: %v", k, err)
		}
		var tr struct {
			TraceEvents []map[string]any `json:"traceEvents"`
			Unit        string           `json:"displayTimeUnit"`
		}
		if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
			t.Fatalf("output after %d events is not valid JSON: %v\n%s", k, err, buf.String())
		}
		if tr.Unit != "ms" {
			t.Errorf("after %d events: displayTimeUnit = %q", k, tr.Unit)
		}
	}
	// Close is idempotent.
	var buf bytes.Buffer
	st := NewStreamTracer(&buf, nil)
	st.Emit(Event{Kind: KindPowerOn})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Error("second Close wrote more bytes")
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct {
	n   int
	err error
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

func TestStreamTracerWriteError(t *testing.T) {
	sentinel := errors.New("disk full")
	st := NewStreamTracer(&failWriter{n: 64, err: sentinel}, nil)
	// The bufio layer defers the failure; keep emitting until it bites.
	for i := 0; i < 100000 && st.Err() == nil; i++ {
		st.Emit(Event{Kind: KindOpCommit, Time: float64(i), Dur: 1, Layer: 0, Op: int64(i)})
	}
	if !errors.Is(st.Err(), sentinel) {
		t.Fatalf("Err() = %v, want the injected write error", st.Err())
	}
	if st.Enabled() {
		t.Error("tracer must report disabled after a write error")
	}
	before := st.Events()
	st.Emit(Event{Kind: KindPowerOn}) // must not panic, must not count
	if st.Events() != before {
		t.Error("Emit after a write error still counted an event")
	}
	if err := st.Close(); !errors.Is(err, sentinel) {
		t.Errorf("Close = %v, want the injected write error", err)
	}
}

// failCloser succeeds every write and fails Close — the truncated-flush
// shape RenderTo must surface.
type failCloser struct {
	io.Writer
	err error
}

func (c *failCloser) Close() error { return c.err }

func TestRenderToPropagatesCloseError(t *testing.T) {
	sentinel := errors.New("deferred flush failure")
	err := RenderTo(&failCloser{Writer: io.Discard, err: sentinel}, func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("RenderTo = %v, want the Close error", err)
	}
	// A render failure wins over the Close error.
	renderErr := errors.New("render failed")
	err = RenderTo(&failCloser{Writer: io.Discard, err: sentinel}, func(io.Writer) error { return renderErr })
	if !errors.Is(err, renderErr) {
		t.Errorf("RenderTo = %v, want the render error", err)
	}
}

func TestStreamTracerMultiProcess(t *testing.T) {
	var buf bytes.Buffer
	st := NewStreamTracer(&buf, nil)
	st.NextProcess("HAR iPrune", []string{"conv1"})
	st.Emit(Event{Kind: KindLayerEnd, Time: 1, Dur: 1, Layer: 0})
	st.NextProcess("empty section", nil) // no events: must leave nothing
	st.NextProcess("CKS iPrune", []string{"fc1"})
	st.Emit(Event{Kind: KindLayerEnd, Time: 2, Dur: 1, Layer: 0})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	procs := map[int]string{}
	layers := map[int]string{}
	for _, e := range tr.TraceEvents {
		if e.Name == "process_name" {
			procs[e.Pid], _ = e.Args["name"].(string)
		}
		if e.Ph == "X" {
			layers[e.Pid] = e.Name
		}
	}
	if len(procs) != 2 || procs[1] != "HAR iPrune" || procs[2] != "CKS iPrune" {
		t.Errorf("process sections = %v, want pids 1,2 named after the runs", procs)
	}
	if layers[1] != "conv1" || layers[2] != "fc1" {
		t.Errorf("per-process layer names = %v", layers)
	}
	if strings.Contains(buf.String(), "empty section") {
		t.Error("a section with no events must leave nothing in the trace")
	}
	if st.Events() != 2 {
		t.Errorf("Events() = %d, want 2 (metadata not counted)", st.Events())
	}
}

// TestStreamTracerEmitZeroAlloc pins the acceptance criterion: steady-
// state emission reuses the scratch buffer and allocates nothing.
func TestStreamTracerEmitZeroAlloc(t *testing.T) {
	st := NewStreamTracer(io.Discard, []string{"conv1", "fc1"})
	ev := Event{Kind: KindOpCommit, Time: 12.5, Dur: 0.25, Layer: 1, Op: 42, Energy: 3e-4, Read: 256}
	st.Emit(ev) // warm the scratch buffer and metadata path
	allocs := testing.AllocsPerRun(1000, func() { st.Emit(ev) })
	if allocs != 0 {
		t.Errorf("Emit allocates %.1f per op in steady state, want 0", allocs)
	}
}

// BenchmarkStreamTracerEmit is in the benchdiff hot set: its allocs/op
// must stay 0 and its ns/op within the regression threshold.
func BenchmarkStreamTracerEmit(b *testing.B) {
	st := NewStreamTracer(io.Discard, []string{"conv1", "fc1"})
	ev := Event{Kind: KindOpCommit, Time: 12.5, Dur: 0.25, Layer: 1, Op: 42, Energy: 3e-4, Read: 256}
	st.Emit(ev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Emit(ev)
	}
}

// TestAppendJSONScalarsMatchEncoding cross-checks the hand encoders
// against encoding/json directly, beyond the values the trace fixtures
// happen to produce.
func TestAppendJSONScalarsMatchEncoding(t *testing.T) {
	strs := append([]string{"", "plain", "a b c", "\x00\x1f\x7f", `\"`, "<script>&amp;</script>", "naïve line", "\xc3\x28"}, trickyNames...)
	for _, s := range strs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
	floats := []float64{0, 1, -1, 0.5, 1e-6, 9.9e-7, 1e-9, 2.5e-7, 1e20, 1e21, 3.25e21, -4e-8, 123456789.25, 1.5e6}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

func TestTee(t *testing.T) {
	if NewTee().Enabled() || NewTee(nil, Nop{}).Enabled() {
		t.Error("Tee over nothing enabled must be disabled")
	}
	r1, r2 := NewRecorder(), NewRecorder()
	var buf bytes.Buffer
	st := NewStreamTracer(&buf, nil)
	tee := NewTee(nil, r1, Nop{}, st, r2)
	if !tee.Enabled() {
		t.Fatal("Tee with enabled members must be enabled")
	}
	tee.Emit(Event{Kind: KindPowerOn, Time: 1})
	tee.Emit(Event{Kind: KindPowerOff, Time: 2})
	if len(r1.Events()) != 2 || len(r2.Events()) != 2 {
		t.Errorf("recorders saw %d/%d events, want 2/2", len(r1.Events()), len(r2.Events()))
	}
	if st.Events() != 2 {
		t.Errorf("stream member saw %d events, want 2", st.Events())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !tee.Enabled() {
		t.Error("Tee must stay enabled while the recorders are")
	}
	if NewTee(st).Enabled() {
		t.Error("Tee over only a closed stream must be disabled")
	}
	before := len(r1.Events())
	tee.Emit(Event{Kind: KindFailure, Time: 3})
	if len(r1.Events()) != before+1 {
		t.Error("closed stream member must not block the recorders")
	}
	if st.Events() != 2 {
		t.Error("closed stream member must not receive further events")
	}
}
