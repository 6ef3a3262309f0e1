package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// Tracks (tids) of the rendered trace.
const (
	tidAccel  = 1 // accelerator ops, preservation, recovery
	tidLayers = 2 // layer spans
	tidPower  = 3 // power cycles, failures, charging
)

// StreamTracer is the Chrome trace-event encoder: a Tracer that encodes
// each emitted event as one JSON object straight into a buffered
// io.Writer and retains nothing. A solar-day harvest simulation emits
// millions of events; recording them first would hold the whole run in
// memory, so the long-horizon CLI paths (`isim -trace`, `repro`
// artifacts) stream instead, and WriteChromeTrace replays a recorded
// slice through it. Its bytes match what encoding/json renders for the
// same events (pinned by test against the encoding/json encoder kept
// there), so traces load in Perfetto / chrome://tracing.
//
// Lifecycle: NewStreamTracer writes nothing; the object header and the
// per-process metadata are emitted lazily before the first event, and
// Close writes the closing footer and flushes. Callers must Close (the
// deferred-footer contract): an un-Closed stream is a truncated JSON
// array, whereas any prefix of emissions followed by Close parses. Write
// errors are sticky: the first failure disables the tracer (Enabled
// turns false, further Emits discard) and is returned by Close and Err,
// so a full disk surfaces as a failed artifact instead of a silently
// truncated one.
//
// StreamTracer is not safe for concurrent use, matching Recorder.
type StreamTracer struct {
	w      *bufio.Writer
	buf    []byte   // per-event scratch, reused across Emit calls
	names  []string // layer-name table of the current process section
	proc   string   // process_name metadata of the current section ("" = none)
	pid    int
	n      int64 // JSON array elements written, for comma placement
	events int64 // trace events written (excludes metadata)
	meta   bool  // current section's metadata has been written
	moved  bool  // NextProcess was ever called
	header bool  // the surrounding object header has been written
	closed bool
	err    error
}

// NewStreamTracer returns a streaming tracer rendering into w. names
// labels layer indices; it may be nil.
func NewStreamTracer(w io.Writer, names []string) *StreamTracer {
	return &StreamTracer{
		w:     bufio.NewWriterSize(w, 32<<10),
		buf:   make([]byte, 0, 256),
		names: names,
		pid:   1,
	}
}

// Enabled implements Tracer. It turns false once the stream is closed or
// a write has failed, so hot emission sites stop constructing events for
// a dead sink.
//
//iprune:hotpath
func (t *StreamTracer) Enabled() bool { return !t.closed && t.err == nil }

// Err returns the first write error encountered, if any. Long-running
// callers can poll it to abort a simulation whose artifact is already
// lost.
func (t *StreamTracer) Err() error { return t.err }

// Events returns the number of trace events written so far (metadata
// records excluded).
func (t *StreamTracer) Events() int64 { return t.events }

// NextProcess starts a new process section in the trace: subsequent
// events carry a fresh pid, their own thread tracks, a process_name
// metadata record, and the given layer-name table. This renders several
// runs (one per model, say) into a single trace file as side-by-side
// Perfetto process groups; each section's timestamps restart at its
// simulator's own origin. A section in which no event was emitted leaves
// nothing in the output.
func (t *StreamTracer) NextProcess(name string, names []string) {
	if t.meta {
		t.pid++
	}
	t.meta = false
	t.moved = true
	t.proc = name
	t.names = names
}

// Emit implements Tracer: the event is encoded and written immediately,
// nothing is retained. The scratch buffer is reused across calls, so
// steady-state emission does not allocate (pinned by benchmark and
// gated via the benchdiff hot set). The allow-alloc blessing marks that
// audited boundary for the devirtualized call graph: the appends inside
// the encoder helpers (appendEvent, writeMeta, the JSON scalar
// encoders) all land in the reused scratch or the lazily-written
// metadata path and must not re-surface at every hot emission site.
//
//iprune:hotpath
//iprune:allow-alloc amortized per-event scratch reuse; steady-state zero-alloc pinned by benchmark
//iprune:allow-budget host-side trace encoding; event cost scales with label lengths, not device regions
func (t *StreamTracer) Emit(ev Event) {
	if t.closed || t.err != nil {
		return
	}
	if ev.Kind == KindLayerStart {
		return // the LayerEnd event renders the whole span
	}
	// x-x is NaN, not 0, when any of the three is NaN or infinite:
	// encoding/json has no encoding for those and neither has the trace.
	if x := ev.Time + ev.Dur + ev.Energy; x-x != 0 {
		t.err = fmt.Errorf("obs: %v event at %v (dur %v, energy %v) has no JSON encoding", ev.Kind, ev.Time, ev.Dur, ev.Energy)
		return
	}
	t.ensureMeta()
	b := t.buf[:0]
	if t.n > 0 {
		b = append(b, ',') //iprune:allow-alloc amortized reuse of the per-event scratch buffer
	}
	b = t.appendEvent(b, &ev)
	t.buf = b
	t.write(b)
	t.n++
	t.events++
}

// Close writes the trace footer, flushes, and returns the first error of
// the stream's lifetime. It is idempotent. Closing an empty stream still
// yields a complete, loadable trace.
func (t *StreamTracer) Close() error {
	if t.closed {
		return t.err
	}
	t.closed = true
	if !t.moved {
		// An empty recording still gets the default section's track
		// metadata.
		t.ensureMeta()
	}
	t.ensureHeader()
	t.write([]byte("],\"displayTimeUnit\":\"ms\"}\n"))
	if ferr := t.w.Flush(); t.err == nil {
		t.err = ferr
	}
	return t.err
}

// write forwards to the buffered writer with sticky error handling.
func (t *StreamTracer) write(p []byte) {
	if t.err != nil {
		return
	}
	if _, err := t.w.Write(p); err != nil {
		t.err = err
	}
}

// ensureHeader writes the surrounding JSON object opening once.
func (t *StreamTracer) ensureHeader() {
	if t.header {
		return
	}
	t.header = true
	t.write([]byte("{\"traceEvents\":["))
}

// ensureMeta writes the current section's metadata records: an optional
// process_name plus the three thread tracks.
func (t *StreamTracer) ensureMeta() {
	if t.meta {
		return
	}
	t.meta = true
	t.ensureHeader()
	if t.proc != "" {
		t.writeMeta("process_name", 0, t.proc)
	}
	t.writeMeta("thread_name", tidAccel, "accelerator")
	t.writeMeta("thread_name", tidLayers, "layers")
	t.writeMeta("thread_name", tidPower, "power")
}

// writeMeta emits one "M" metadata record.
func (t *StreamTracer) writeMeta(kind string, tid int, name string) {
	b := t.buf[:0]
	if t.n > 0 {
		b = append(b, ',')
	}
	b = append(b, "{\"name\":\""...)
	b = append(b, kind...)
	b = append(b, "\",\"ph\":\"M\",\"ts\":0,\"pid\":"...)
	b = strconv.AppendInt(b, int64(t.pid), 10)
	b = append(b, ",\"tid\":"...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, ",\"args\":{\"name\":"...)
	b = appendJSONString(b, name)
	b = append(b, "}}"...)
	t.buf = b
	t.write(b)
	t.n++
}

// appendEvent encodes one event exactly as encoding/json renders it from
// the trace-event struct kept in the tests: same fields, same order, same
// float and string encodings (pinned byte-identical by test).
func (t *StreamTracer) appendEvent(b []byte, ev *Event) []byte {
	const us = 1e6
	kind := ev.Kind.String()
	switch ev.Kind {
	case KindPowerOn, KindPowerOff:
		b = t.appendCommon(b, kind, -1, kind, "i", ev.Time*us, 0, tidPower, "t")
	case KindFailure:
		b = t.appendCommon(b, kind, -1, kind, "i", ev.Time*us, 0, tidPower, "g")
		if ev.Energy != 0 {
			b = append(b, ",\"args\":{\"lost_energy_j\":"...)
			b = appendJSONFloat(b, ev.Energy)
			b = append(b, '}')
		}
	case KindCharge:
		b = t.appendCommon(b, kind, -1, kind, "X", ev.Time*us, ev.Dur*us, tidPower, "")
	case KindOpStart, KindReExec:
		b = t.appendCommon(b, kind, -1, kind, "i", ev.Time*us, 0, tidAccel, "t")
		b = append(b, ",\"args\":{\"op\":"...)
		b = strconv.AppendInt(b, ev.Op, 10)
		b = append(b, '}')
	case KindOpCommit:
		b = t.appendCommon(b, "op", -1, kind, "X", ev.Time*us, ev.Dur*us, tidAccel, "")
		b = append(b, ",\"args\":{"...)
		if ev.Energy != 0 {
			b = append(b, "\"energy_j\":"...)
			b = appendJSONFloat(b, ev.Energy)
			b = append(b, ',')
		}
		b = append(b, "\"layer\":"...)
		b = t.appendLayerName(b, ev.Layer)
		b = append(b, ",\"op\":"...)
		b = strconv.AppendInt(b, ev.Op, 10)
		if ev.Read != 0 {
			b = append(b, ",\"read_bytes\":"...)
			b = strconv.AppendInt(b, ev.Read, 10)
		}
		b = append(b, '}')
	case KindPreserve:
		b = t.appendCommon(b, kind, -1, kind, "i", ev.Time*us, 0, tidAccel, "t")
		b = append(b, ",\"args\":{\"op\":"...)
		b = strconv.AppendInt(b, ev.Op, 10)
		b = append(b, ",\"write_bytes\":"...)
		b = strconv.AppendInt(b, ev.Write, 10)
		b = append(b, '}')
	case KindRecovery:
		b = t.appendCommon(b, kind, -1, kind, "X", ev.Time*us, ev.Dur*us, tidAccel, "")
		b = append(b, ",\"args\":{"...)
		if ev.Energy != 0 {
			b = append(b, "\"energy_j\":"...)
			b = appendJSONFloat(b, ev.Energy)
			b = append(b, ',')
		}
		b = append(b, "\"op\":"...)
		b = strconv.AppendInt(b, ev.Op, 10)
		b = append(b, ",\"refetch_bytes\":"...)
		b = strconv.AppendInt(b, ev.Read, 10)
		b = append(b, '}')
	case KindLayerEnd:
		b = t.appendCommon(b, "", ev.Layer, kind, "X", (ev.Time-ev.Dur)*us, ev.Dur*us, tidLayers, "")
		if ev.Energy != 0 {
			b = append(b, ",\"args\":{\"energy_j\":"...)
			b = appendJSONFloat(b, ev.Energy)
			b = append(b, '}')
		}
	default:
		b = t.appendCommon(b, kind, -1, kind, "i", ev.Time*us, 0, tidAccel, "t")
	}
	return append(b, '}')
}

// appendCommon appends the fields shared by every event in the format's
// field order: name, cat, ph, ts, dur (omitted when zero), pid, tid and
// s (omitted when empty). name == "" selects the layer-name table via
// nameLayer instead.
func (t *StreamTracer) appendCommon(b []byte, name string, nameLayer int, cat, ph string, ts, dur float64, tid int, s string) []byte {
	b = append(b, "{\"name\":"...)
	if name != "" {
		b = appendJSONString(b, name)
	} else {
		b = t.appendLayerName(b, nameLayer)
	}
	b = append(b, ",\"cat\":"...)
	b = appendJSONString(b, cat)
	b = append(b, ",\"ph\":\""...)
	b = append(b, ph...)
	b = append(b, "\",\"ts\":"...)
	b = appendJSONFloat(b, ts)
	if dur != 0 {
		b = append(b, ",\"dur\":"...)
		b = appendJSONFloat(b, dur)
	}
	b = append(b, ",\"pid\":"...)
	b = strconv.AppendInt(b, int64(t.pid), 10)
	b = append(b, ",\"tid\":"...)
	b = strconv.AppendInt(b, int64(tid), 10)
	if s != "" {
		b = append(b, ",\"s\":\""...)
		b = append(b, s...)
		b = append(b, '"')
	}
	return b
}

// appendLayerName appends the quoted JSON name of a layer index: the
// table entry when in range, the synthetic "layer<N>" fallback otherwise
// — layerName without the intermediate string allocation.
func (t *StreamTracer) appendLayerName(b []byte, li int) []byte {
	if li >= 0 && li < len(t.names) {
		return appendJSONString(b, t.names[li])
	}
	b = append(b, "\"layer"...)
	b = strconv.AppendInt(b, int64(li), 10)
	return append(b, '"')
}

// ---------------------------------------------------------------------------
// encoding/json-compatible scalar encoders

const jsonHex = "0123456789abcdef"

// appendJSONString appends s quoted and escaped exactly as
// encoding/json's default (HTML-escaping) encoder would: control
// characters, quote and backslash escaped, <, >, & as \u00XX, invalid
// UTF-8 as �, and U+2028/U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, "\\ufffd"...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', jsonHex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendJSONFloat appends f exactly as encoding/json encodes a float64:
// shortest 'f' form in the mid range, 'e' form (with the exponent's
// leading zero stripped) below 1e-6 and at or above 1e21.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json cleans e-09 to e-9 etc.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// ---------------------------------------------------------------------------
// Tee

// Tee fans one event stream out to several tracers — typically a
// StreamTracer writing the artifact plus a Recorder feeding Collect.
// Disabled members are skipped per emission, so a StreamTracer that hit
// a write error stops costing anything while the others keep recording.
type Tee struct {
	ts []Tracer
}

// NewTee combines tracers into one. Nil members are dropped; a Tee over
// nothing is permanently disabled.
func NewTee(ts ...Tracer) *Tee {
	t := &Tee{ts: make([]Tracer, 0, len(ts))}
	for _, tr := range ts {
		if tr != nil {
			t.ts = append(t.ts, tr)
		}
	}
	return t
}

// Enabled implements Tracer: true while any member is enabled.
//
//iprune:hotpath
//iprune:allow-budget tracer fan-out recurses through nested tees; host-side observability, outside the device energy envelope
func (t *Tee) Enabled() bool {
	for _, tr := range t.ts {
		if tr.Enabled() {
			return true
		}
	}
	return false
}

// Emit implements Tracer, forwarding to every enabled member.
//
//iprune:hotpath
//iprune:allow-budget tracer fan-out recurses through nested tees; host-side observability, outside the device energy envelope
func (t *Tee) Emit(ev Event) {
	for _, tr := range t.ts {
		if tr.Enabled() {
			tr.Emit(ev)
		}
	}
}
