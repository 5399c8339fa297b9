package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"ccf/internal/obs"
)

// Options configures a Tracer.
type Options struct {
	// SampleEvery enables always-on sampling: every Nth request gets a
	// full trace captured into the recorder and fed into per-phase
	// attribution histograms. 0 disables sampling (slow requests are
	// still captured). 1 traces everything.
	SampleEvery int
	// SlowThreshold pins any request at or over this duration into the
	// flight recorder's slow ring regardless of sampling. 0 disables.
	SlowThreshold time.Duration
	// Recorder receives captured traces; nil means slow/sampled traces
	// are dropped (spans still feed the phase histograms).
	Recorder *Recorder
}

// Metrics are the tracer's own counters, preallocated handles in the
// obs style so capture accounting stays off the allocator.
type Metrics struct {
	SlowCaptured    obs.Counter // traces pinned for exceeding -slow-query
	SampledCaptured obs.Counter // traces captured by -trace-sample
	SpansDropped    obs.Counter // spans lost to a full Req buffer
}

// Tracer owns the flight recorder and the per-phase attribution
// histograms. A nil *Tracer is valid and inert: every method is
// nil-safe and the spans it hands out are no-ops, so call sites never
// branch on "is tracing on".
type Tracer struct {
	sampleEvery   atomic.Int64
	slowThreshold atomic.Int64
	reqSeq        atomic.Uint64
	seed          uint64
	rec           *Recorder
	phases        [numPhases]*obs.Histogram
	metrics       Metrics
	reqPool       sync.Pool
}

// New builds a Tracer. The per-phase histograms cover 100ns..~100ms,
// the span-duration range of a single request phase.
func New(o Options) *Tracer {
	t := &Tracer{
		seed: uint64(time.Now().UnixNano()),
		rec:  o.Recorder,
	}
	for p := range t.phases {
		t.phases[p] = obs.NewHistogram(1e-9, obs.ExpBounds(100, 4, 11))
	}
	t.sampleEvery.Store(int64(o.SampleEvery))
	t.slowThreshold.Store(int64(o.SlowThreshold))
	t.reqPool.New = func() any { return new(Req) }
	return t
}

// TracerMetrics returns the tracer's counter handles for registration.
func (t *Tracer) TracerMetrics() *Metrics {
	if t == nil {
		return nil
	}
	return &t.metrics
}

// PhaseHistogram returns the attribution histogram for phase p, for
// metric registration. Nil on a nil tracer.
func (t *Tracer) PhaseHistogram(p Phase) *obs.Histogram {
	if t == nil || p >= numPhases {
		return nil
	}
	return t.phases[p]
}

// SetSlowThreshold updates the pin threshold (mirrors -slow-query).
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t != nil {
		t.slowThreshold.Store(int64(d))
	}
}

// SampleEvery returns the configured sampling interval (0 = off).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return int(t.sampleEvery.Load())
}

// maxReqSpans bounds spans per request. A query touching every shard
// of a 64-shard filter stays under this; overflow increments
// SpansDropped rather than allocating.
const maxReqSpans = 48

// Req is one request's trace context: a pooled fixed-capacity span
// buffer plus the trace identity. All methods are nil-safe so untraced
// call paths pay one predictable branch.
type Req struct {
	t            *Tracer
	id           ID
	remoteParent uint64 // parent span ID from an incoming traceparent
	flags        uint8
	sampled      bool
	n            atomic.Int32
	spans        [maxReqSpans]Span
}

// TraceID returns the request's trace ID (zero ID on nil).
func (r *Req) TraceID() ID {
	if r == nil {
		return ID{}
	}
	return r.id
}

// Sampled reports whether this request is a sampling-selected trace.
func (r *Req) Sampled() bool { return r != nil && r.sampled }

// Traceparent renders the outgoing traceparent header for this
// request, parenting on the root span.
func (r *Req) Traceparent() string {
	if r == nil {
		return ""
	}
	return FormatTraceparent(r.id, r.spans[0].ID, r.flags)
}

// StartRequest begins a request trace. traceparent is the incoming
// header value ("" when absent): a valid one is honored — the trace ID
// and sampled flag propagate and the root span parents on the remote
// span — otherwise a fresh trace ID is generated. Nil-safe: a nil
// tracer returns a nil *Req whose methods all no-op.
func (t *Tracer) StartRequest(traceparent string) *Req {
	if t == nil {
		return nil
	}
	r := t.reqPool.Get().(*Req)
	r.t = t
	r.n.Store(1)
	r.remoteParent = 0
	r.flags = 0
	seq := t.reqSeq.Add(1)
	if id, parent, flags, ok := ParseTraceparent(traceparent); ok {
		r.id = id
		r.remoteParent = parent
		r.flags = flags
	} else {
		r.id = newTraceID(t.seed)
	}
	every := t.sampleEvery.Load()
	r.sampled = (every > 0 && int64(seq)%every == 0) || r.flags&FlagSampled != 0
	if r.sampled {
		r.flags |= FlagSampled
	}
	root := &r.spans[0]
	*root = Span{
		TraceHi: r.id.Hi,
		TraceLo: r.id.Lo,
		ID:      newSpanID(t.seed),
		Parent:  r.remoteParent,
		Start:   now(),
		Phase:   PhaseRequest,
	}
	return r
}

// Spanner is a handle on one in-flight span inside a Req. The zero
// value (from a nil Req or an overflowed buffer) is a no-op.
type Spanner struct {
	r *Req
	i int32
}

// Start opens a child span of the request root. On buffer overflow the
// span is counted in SpansDropped and the returned Spanner no-ops.
func (r *Req) Start(p Phase) Spanner {
	if r == nil {
		return Spanner{}
	}
	i := r.n.Add(1) - 1
	if i >= maxReqSpans {
		r.n.Store(maxReqSpans)
		r.t.metrics.SpansDropped.Inc()
		return Spanner{}
	}
	r.spans[i] = Span{
		TraceHi: r.id.Hi,
		TraceLo: r.id.Lo,
		ID:      newSpanID(r.t.seed),
		Parent:  r.spans[0].ID,
		Start:   now(),
		Phase:   p,
	}
	return Spanner{r: r, i: i}
}

// Attr attaches one attribute and returns the Spanner for chaining.
// Fixed-arity (not variadic) so chains stay allocation-free.
func (s Spanner) Attr(k AttrKey, v int64) Spanner {
	if s.r == nil {
		return s
	}
	sp := &s.r.spans[s.i]
	if sp.N < maxAttrs {
		sp.Attrs[sp.N] = Attr{Key: k, Val: v}
		sp.N++
	}
	return s
}

// End closes the span. It stays in the request's buffer, where Finish
// reads it.
func (s Spanner) End() {
	if s.r == nil {
		return
	}
	sp := &s.r.spans[s.i]
	sp.Dur = now() - sp.Start
}

// Finish ends the request trace: closes the root span (attaching the
// HTTP status), feeds the attribution histograms when sampled, and hands
// the trace to the recorder when slow or sampled. It returns the request
// duration. The Req must not be used after.
func (t *Tracer) Finish(r *Req, status int) time.Duration {
	if t == nil || r == nil {
		return 0
	}
	root := &r.spans[0]
	root.Dur = now() - root.Start
	if root.N < maxAttrs {
		root.Attrs[root.N] = Attr{Key: AttrStatus, Val: int64(status)}
		root.N++
	}
	dur := time.Duration(root.Dur)
	n := r.n.Load()
	if n > maxReqSpans {
		n = maxReqSpans
	}
	if r.sampled {
		for i := int32(0); i < n; i++ {
			sp := &r.spans[i]
			t.phases[sp.Phase].Observe(sp.Dur)
		}
	}
	slow := t.slowThreshold.Load() > 0 && root.Dur >= t.slowThreshold.Load()
	if t.rec != nil && (slow || r.sampled) {
		if slow {
			t.metrics.SlowCaptured.Inc()
		} else {
			t.metrics.SampledCaptured.Inc()
		}
		t.rec.capture(r.spans[:n], slow)
	}
	r.t = nil
	t.reqPool.Put(r)
	return dur
}

// BgSpan is an in-flight background span (grow, fold, checkpoint,
// recovery). Unlike request spans it is self-contained — no Req — and
// lands in the recorder's background ring on End.
type BgSpan struct {
	t  *Tracer
	sp Span
}

// StartBackground opens a background span. origin is the trace ID of
// the request that triggered the work (zero when none — e.g. timer
// checkpoints — in which case the span roots a fresh trace).
func (t *Tracer) StartBackground(p Phase, origin ID) *BgSpan {
	if t == nil {
		return nil
	}
	if origin.IsZero() {
		origin = newTraceID(t.seed)
	}
	return &BgSpan{
		t: t,
		sp: Span{
			TraceHi: origin.Hi,
			TraceLo: origin.Lo,
			ID:      newSpanID(t.seed),
			Start:   now(),
			Phase:   p,
		},
	}
}

// Attr attaches one attribute.
func (b *BgSpan) Attr(k AttrKey, v int64) *BgSpan {
	if b == nil {
		return nil
	}
	if b.sp.N < maxAttrs {
		b.sp.Attrs[b.sp.N] = Attr{Key: k, Val: v}
		b.sp.N++
	}
	return b
}

// End closes the span, feeds attribution, and records it in the
// recorder's background timeline.
func (b *BgSpan) End() {
	if b == nil {
		return
	}
	b.sp.Dur = now() - b.sp.Start
	b.t.phases[b.sp.Phase].Observe(b.sp.Dur)
	if b.t.rec != nil {
		b.t.rec.background(&b.sp)
	}
}

// TraceID returns the span's trace ID, for log correlation.
func (b *BgSpan) TraceID() ID {
	if b == nil {
		return ID{}
	}
	return ID{Hi: b.sp.TraceHi, Lo: b.sp.TraceLo}
}
