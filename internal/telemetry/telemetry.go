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
// The sampled path records spans and typed attributes into storage the
// trace owns, a few appends per stage; the wire-format tree is built
// only when /debug/traces reads it.
package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"math"
	"slices"
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
	// A trace holds its first inlineSpans spans itself, enough for a
	// GET request's root and stages; a larger one takes further spans
	// in chunks of spanChunk. A span holds inlineAttrs attributes
	// itself; more move to a slice of their own.
	inlineSpans = 4
	spanChunk   = 16
	inlineAttrs = 3
)

// Tracer samples requests and collects their completed traces. Safe
// for concurrent use; a nil *Tracer is valid and never samples.
type Tracer struct {
	every    uint64 // sample every n-th request; 0 disables
	maxSpans int    // maxSpansPerTrace; tests change it
	ring     *StripedRing[TraceRef]

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
	return &Tracer{every: every, maxSpans: maxSpansPerTrace, ring: NewStripedRing[TraceRef](capacity)}
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

// attr is one key/value annotation on a span, stored without boxing:
// a string in str, anything else in num's 8 bytes, as kind says.
type attr struct {
	key, str string
	kind     byte
	num      uint64
}

const (
	kindStr = iota
	kindInt
	kindFloat
	kindBool
)

// value is the attribute as a snapshot's attrs map holds it.
func (a attr) value() any {
	switch a.kind {
	case kindInt:
		return int64(a.num)
	case kindFloat:
		return math.Float64frombits(a.num)
	case kindBool:
		return a.num != 0
	}
	return a.str
}

// activeTrace is the shared state of one trace. One mutex guards the
// whole span tree: spans of one request may be created and annotated
// from concurrent goroutines (the batch fan-out), and contention is
// bounded by the request itself. Once the root ends the tree is
// frozen: every later StartSpan, Set* and End on the trace is a no-op,
// so readers render it without the lock.
type activeTrace struct {
	tracer *Tracer
	id     string
	start  time.Time // the root's start; spans record offsets from it

	mu       sync.Mutex
	root     *Span
	free     []Span // spans not yet handed out; a chunk never moves
	spans    int
	dropped  int
	finished bool
	inline   [inlineSpans]Span
}

// newSpanLocked hands out the trace's next span, whose context wraps
// parent; callers hold t.mu.
func (t *activeTrace) newSpanLocked(parent context.Context, name string) *Span {
	if len(t.free) == 0 {
		t.free = make([]Span, spanChunk)
	}
	s := &t.free[0]
	t.free = t.free[1:]
	s.t, s.name, s.ctx, s.attrs = t, name, spanCtx{parent, s}, s.inline[:0]
	t.spans++
	return s
}

// Span is one timed stage of a traced request. The zero of the API is
// the nil span: every method is a no-op on nil, which is what the
// untraced fast path receives.
type Span struct {
	t     *activeTrace
	ctx   spanCtx
	name  string
	off   time.Duration // start, from the trace's start
	dur   time.Duration // 0 while running
	child *Span         // the latest child; earlier ones follow by next
	next  *Span         // the sibling started just before this one
	// attrs starts on inline and moves to the heap past inlineAttrs.
	attrs  []attr
	inline [inlineAttrs]attr
}

// spanCtx is the context a span hands its callee: the caller's context
// carrying the span, without a context.WithValue per span.
type spanCtx struct {
	context.Context
	span *Span
}

func (c *spanCtx) Value(key any) any {
	if key == (ctxKey{}) {
		return c.span
	}
	return c.Context.Value(key)
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
	tr := &activeTrace{tracer: t, id: id, start: time.Now()}
	tr.free = tr.inline[:]
	tr.root = tr.newSpanLocked(ctx, name) // not yet shared: no lock needed
	return &tr.root.ctx, tr.root
}

// StartSpan begins a child of the span carried by ctx. When ctx holds
// no span (the request was not sampled, or the caller is outside a
// request) or the trace has completed, it returns ctx unchanged and
// nil without allocating.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	t := parent.t
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return ctx, nil
	}
	if t.spans >= t.tracer.maxSpans {
		t.dropped++
		t.mu.Unlock()
		t.tracer.spansDropped.Add(1)
		return ctx, nil
	}
	child := t.newSpanLocked(ctx, name)
	child.off = time.Since(t.start)
	child.next, parent.child = parent.child, child
	t.mu.Unlock()
	return &child.ctx, child
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
func (s *Span) SetStr(key, v string) { s.add(attr{key: key, str: v, kind: kindStr}) }

// SetInt annotates the span with an integer attribute.
func (s *Span) SetInt(key string, v int64) { s.add(attr{key: key, kind: kindInt, num: uint64(v)}) }

// SetFloat annotates the span with a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	s.add(attr{key: key, kind: kindFloat, num: math.Float64bits(v)})
}

// SetBool annotates the span with a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	a := attr{key: key, kind: kindBool}
	if v {
		a.num = 1
	}
	s.add(a)
}

func (s *Span) add(a attr) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	if !t.finished {
		s.attrs = append(s.attrs, a)
	}
	t.mu.Unlock()
}

// End finishes the span. Ending the root span completes the trace and
// pushes it into the tracer's ring buffer; from then on the trace is
// immutable, and /debug/traces renders it when read. End is
// idempotent; ending a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	if s.dur == 0 { // a floor of 1ns keeps End idempotent
		s.dur = max(time.Since(t.start)-s.off, 1)
	}
	t.finished = s == t.root
	completing, dropped := t.finished, t.dropped
	t.mu.Unlock()
	if completing {
		t.tracer.ring.Add(TraceRef{ID: t.id, Start: t.start, Duration: s.dur, trace: t})
		t.tracer.finished.Add(1)
		if dropped > 0 {
			t.tracer.truncated.Add(1)
		}
	}
}

// TraceRef is one completed trace in the ring: the identity and
// timing of its root, read without rendering the span tree.
type TraceRef struct {
	ID       string
	Start    time.Time
	Duration time.Duration
	trace    *activeTrace
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

// Snapshot renders the trace in wire format. The trace completed
// before it entered the ring, so it is read without the lock.
func (r TraceRef) Snapshot() TraceSnapshot {
	t := r.trace
	return TraceSnapshot{
		TraceID:         t.id,
		Name:            t.root.name,
		Start:           t.start,
		DurationSeconds: t.root.dur.Seconds(),
		SpanCount:       t.spans,
		DroppedSpans:    t.dropped,
		Root:            t.root.snapshot(t.root.dur),
	}
}

// snapshot renders one span subtree of a completed trace. A child
// still running when the root ended is truncated at the root's end.
func (s *Span) snapshot(rootDur time.Duration) SpanSnapshot {
	dur := s.dur
	if dur == 0 {
		dur = max(rootDur-s.off, 0)
	}
	out := SpanSnapshot{
		Name:               s.name,
		StartOffsetSeconds: s.off.Seconds(),
		DurationSeconds:    dur.Seconds(),
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.key] = a.value()
		}
	}
	for c := s.child; c != nil; c = c.next {
		out.Children = append(out.Children, c.snapshot(rootDur))
	}
	slices.Reverse(out.Children) // the list runs newest first
	return out
}

// Refs returns every retained completed trace, oldest first within
// each stripe (use Start to order globally). A nil tracer returns nil.
func (t *Tracer) Refs() []TraceRef {
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
	var id [32]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
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
