// Package telemetry is a lightweight, dependency-free request tracer:
// per-request trace IDs (generated locally or adopted from an incoming
// W3C traceparent header), nested spans with start offsets, durations
// and typed attributes, counter-based sampling, and a lock-striped ring
// buffer of completed traces served on /debug/traces.
//
// The design rule is "always on, always cheap": every request passes
// through StartRequest, but an unsampled request gets a nil *Span back
// and every Span method is nil-receiver safe, so the untraced fast path
// performs zero heap allocations (benchmarked and regression-gated).
// All cost — span structs, attribute boxing, the per-trace mutex — is
// paid only on the sampled path.
package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Tracer. The zero value samples every request and
// retains DefaultCapacity completed traces.
type Config struct {
	// SampleRate is the fraction of requests traced: 1 traces every
	// request, 0.1 every tenth (counter-based, so the rate is exact, not
	// probabilistic). 0 defaults to 1; negative disables sampling
	// entirely (the tracer still counts requests). An incoming
	// traceparent with the sampled flag set forces tracing regardless of
	// the rate, as long as sampling is not disabled.
	SampleRate float64
	// Capacity is the number of completed traces retained in the ring
	// buffer (default DefaultCapacity).
	Capacity int
}

const (
	// DefaultCapacity is the ring size a zero Config.Capacity gets.
	DefaultCapacity = 256
	// maxSpansPerTrace caps the spans of one trace; further StartSpan
	// calls on that trace return nil and are counted as dropped.
	maxSpansPerTrace = 512
)

// Tracer samples requests and collects their completed traces. Safe
// for concurrent use; a nil *Tracer is valid and never samples.
type Tracer struct {
	every    uint64 // sample every n-th request; 0 disables
	maxSpans int    // maxSpansPerTrace; tests change it
	ring     *StripedRing[TraceSnapshot]

	counter      atomic.Uint64
	started      atomic.Int64
	sampled      atomic.Int64
	finished     atomic.Int64
	spansDropped atomic.Int64
	truncated    atomic.Int64
}

// New returns a Tracer for cfg.
func New(cfg Config) *Tracer {
	every := uint64(1)
	switch {
	case cfg.SampleRate < 0:
		every = 0
	case cfg.SampleRate == 0 || cfg.SampleRate >= 1:
		every = 1
	default:
		every = uint64(1/cfg.SampleRate + 0.5)
	}
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{every: every, maxSpans: maxSpansPerTrace, ring: NewStripedRing[TraceSnapshot](capacity)}
}

// TracerStats are the tracer's own counters, exported on /metrics.
type TracerStats struct {
	// RequestsSeen counts StartRequest calls; Sampled how many of them
	// opened a trace; Finished how many traces completed into the ring.
	RequestsSeen int64 `json:"requests_seen"`
	Sampled      int64 `json:"sampled"`
	Finished     int64 `json:"finished"`
	// SpansDropped counts StartSpan calls refused by the per-trace span
	// cap; Evicted counts completed traces pushed out of the ring.
	SpansDropped int64 `json:"spans_dropped"`
	Evicted      int64 `json:"evicted"`
	// TruncatedTraces counts traces that completed with at least one
	// span refused by the cap — the per-trace view of SpansDropped, so
	// an operator can tell "one pathological request" from "every
	// request loses its tail".
	TruncatedTraces int64 `json:"truncated_traces"`
	// Buffered is the point-in-time number of retained traces.
	Buffered int `json:"buffered"`
}

// Stats snapshots the tracer counters. A nil tracer reports zeros.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	evicted, buffered := t.ring.Stats()
	return TracerStats{
		RequestsSeen:    t.started.Load(),
		Sampled:         t.sampled.Load(),
		Finished:        t.finished.Load(),
		SpansDropped:    t.spansDropped.Load(),
		Evicted:         evicted,
		TruncatedTraces: t.truncated.Load(),
		Buffered:        buffered,
	}
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// activeTrace is the shared mutable state of one in-flight trace. One
// mutex guards the whole span tree: spans of one request may be
// created and annotated from concurrent goroutines (the batch
// fan-out), and contention is bounded by the request itself.
type activeTrace struct {
	tracer *Tracer
	id     string

	mu       sync.Mutex
	root     *Span
	spans    int
	dropped  int
	finished bool
}

// Span is one timed stage of a traced request. The zero of the API is
// the nil span: every method is a no-op on nil, which is what the
// untraced fast path receives.
type Span struct {
	t        *activeTrace
	name     string
	start    time.Time
	dur      time.Duration
	attrs    []Attr
	children []*Span
}

// ctxKey carries the current *Span through a context.
type ctxKey struct{}

// StartRequest begins the root span of a new trace for a request-like
// unit of work, deciding sampling. traceparent is the raw incoming
// W3C header value ("" when absent): a parseable header donates its
// trace ID, and its sampled flag forces tracing. An unsampled request
// returns ctx unchanged and a nil span at zero allocation cost.
func (t *Tracer) StartRequest(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if t == nil || t.every == 0 {
		return ctx, nil
	}
	t.started.Add(1)
	id, flags, ok := parseTraceparent(traceparent)
	sampled := ok && flags&1 == 1
	if !sampled {
		sampled = t.counter.Add(1)%t.every == 0
	}
	if !sampled {
		return ctx, nil
	}
	t.sampled.Add(1)
	if !ok {
		id = newTraceID()
	}
	tr := &activeTrace{tracer: t, id: id}
	root := &Span{t: tr, name: name, start: time.Now()}
	tr.root = root
	tr.spans = 1
	return context.WithValue(ctx, ctxKey{}, root), root
}

// StartSpan begins a child of the span carried by ctx. When ctx holds
// no span (the request was not sampled, or the caller is outside a
// request), it returns ctx unchanged and nil without allocating.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	t := parent.t
	t.mu.Lock()
	if t.spans >= t.tracer.maxSpans {
		t.dropped++
		t.mu.Unlock()
		t.tracer.spansDropped.Add(1)
		return ctx, nil
	}
	child := &Span{t: t, name: name, start: time.Now()}
	parent.children = append(parent.children, child)
	t.spans++
	t.mu.Unlock()
	return context.WithValue(ctx, ctxKey{}, child), child
}

// SpanFrom returns the span carried by ctx, or nil when the request
// is untraced. The nil span is safe to annotate and End.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// TraceIDFrom returns the trace ID carried by ctx, or "" when the
// request is untraced. Used by the slog handler wrapper.
func TraceIDFrom(ctx context.Context) string {
	if s, _ := ctx.Value(ctxKey{}).(*Span); s != nil {
		return s.t.id
	}
	return ""
}

// Traceparent renders the outbound W3C traceparent header for the
// trace carried by ctx, with the sampled flag set — the propagation
// half of parseTraceparent. The parent-id field is freshly generated
// per call (this tracer does not track remote parent spans; the
// receiving process only consumes the trace id and the flag). An
// untraced ctx returns "" at zero allocation cost, so callers can
// unconditionally `if tp := Traceparent(ctx); tp != "" { set header }`
// on hot paths.
func Traceparent(ctx context.Context) string {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	if s == nil {
		return ""
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		b = [8]byte{'t', 'p', 0, 0, 0, 0, 0, 1}
	}
	return "00-" + s.t.id + "-" + hex.EncodeToString(b[:]) + "-01"
}

// SetStr annotates the span with a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.add(Attr{Key: key, Value: v})
}

// SetInt annotates the span with an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.add(Attr{Key: key, Value: v})
}

// SetFloat annotates the span with a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.add(Attr{Key: key, Value: v})
}

// SetBool annotates the span with a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.add(Attr{Key: key, Value: v})
}

func (s *Span) add(a Attr) {
	s.t.mu.Lock()
	s.attrs = append(s.attrs, a)
	s.t.mu.Unlock()
}

// End finishes the span. Ending the root span completes the trace:
// its immutable snapshot is pushed into the tracer's ring buffer, so
// /debug/traces never touches live spans. End is idempotent; ending a
// nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	if s.dur == 0 {
		if s.dur = time.Since(s.start); s.dur <= 0 {
			s.dur = 1 // clock granularity floor keeps End idempotent
		}
	}
	completing := t.root == s && !t.finished
	var snap TraceSnapshot
	if completing {
		t.finished = true
		snap = t.snapshotLocked()
	}
	t.mu.Unlock()
	if completing {
		t.tracer.ring.Add(snap)
		t.tracer.finished.Add(1)
		if snap.DroppedSpans > 0 {
			t.tracer.truncated.Add(1)
		}
	}
}

// TraceSnapshot is one completed trace in wire format.
type TraceSnapshot struct {
	TraceID         string       `json:"trace_id"`
	Name            string       `json:"name"`
	Start           time.Time    `json:"start"`
	DurationSeconds float64      `json:"duration_seconds"`
	SpanCount       int          `json:"span_count"`
	DroppedSpans    int          `json:"dropped_spans,omitempty"`
	Root            SpanSnapshot `json:"root"`
}

// SpanSnapshot is one span in wire format. StartOffsetSeconds is
// relative to the trace start.
type SpanSnapshot struct {
	Name               string         `json:"name"`
	StartOffsetSeconds float64        `json:"start_offset_seconds"`
	DurationSeconds    float64        `json:"duration_seconds"`
	Attrs              map[string]any `json:"attrs,omitempty"`
	Children           []SpanSnapshot `json:"children,omitempty"`
}

// snapshotLocked freezes the trace; callers hold t.mu.
func (t *activeTrace) snapshotLocked() TraceSnapshot {
	rootEnd := t.root.start.Add(t.root.dur)
	return TraceSnapshot{
		TraceID:         t.id,
		Name:            t.root.name,
		Start:           t.root.start,
		DurationSeconds: t.root.dur.Seconds(),
		SpanCount:       t.spans,
		DroppedSpans:    t.dropped,
		Root:            t.root.snapshotLocked(t.root.start, rootEnd),
	}
}

// snapshotLocked freezes one span subtree; callers hold the trace
// mutex. A child still running when the root ends is truncated at the
// root's end time.
func (s *Span) snapshotLocked(traceStart, rootEnd time.Time) SpanSnapshot {
	dur := s.dur
	if dur == 0 {
		if dur = rootEnd.Sub(s.start); dur < 0 {
			dur = 0
		}
	}
	out := SpanSnapshot{
		Name:               s.name,
		StartOffsetSeconds: s.start.Sub(traceStart).Seconds(),
		DurationSeconds:    dur.Seconds(),
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	if len(s.children) > 0 {
		out.Children = make([]SpanSnapshot, len(s.children))
		for i, c := range s.children {
			out.Children[i] = c.snapshotLocked(traceStart, rootEnd)
		}
	}
	return out
}

// Traces returns every retained completed trace, oldest first within
// each stripe (use the Start field to order globally). A nil tracer
// returns nil.
func (t *Tracer) Traces() []TraceSnapshot {
	if t == nil {
		return nil
	}
	return t.ring.Snapshot()
}

// newTraceID returns 16 random bytes in lowercase hex (the W3C trace
// ID format).
func newTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// The platform CSPRNG failing is effectively fatal elsewhere;
		// produce a recognisable non-zero ID rather than panic here.
		copy(b[:], "telemetry-fallb")
		b[15] = 1
	}
	return hex.EncodeToString(b[:])
}

// parseTraceparent extracts the trace ID and flags from a W3C
// traceparent header value: "00-<32 hex trace id>-<16 hex parent
// id>-<2 hex flags>". It allocates nothing: the returned ID aliases
// the input. Malformed headers and the all-zero trace ID report ok
// false.
func parseTraceparent(h string) (id string, flags byte, ok bool) {
	if len(h) != 55 || h[0] != '0' || h[1] != '0' ||
		h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", 0, false
	}
	zero := true
	for i := 3; i < 35; i++ {
		if !isHex(h[i]) {
			return "", 0, false
		}
		if h[i] != '0' {
			zero = false
		}
	}
	for i := 36; i < 52; i++ {
		if !isHex(h[i]) {
			return "", 0, false
		}
	}
	hi, lo := hexVal(h[53]), hexVal(h[54])
	if zero || hi < 0 || lo < 0 {
		return "", 0, false
	}
	return h[3:35], byte(hi<<4 | lo), true
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}
