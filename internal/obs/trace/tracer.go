package trace

import (
	"runtime"
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
	// are dropped (rings still work).
	Recorder *Recorder
	// RingSlots sets each striped ring's capacity (rounded up to a
	// power of two, default 256).
	RingSlots int
}

// Metrics are the tracer's own counters, preallocated handles in the
// obs style so capture accounting stays off the allocator.
type Metrics struct {
	SlowCaptured    obs.Counter // traces pinned for exceeding -slow-query
	SampledCaptured obs.Counter // traces captured by -trace-sample
	SpansDropped    obs.Counter // spans lost to a full Req buffer
}

// Tracer owns the striped span rings, the flight recorder, and the
// per-phase attribution histograms. A nil *Tracer is valid and inert:
// every method is nil-safe and the spans it hands out are no-ops, so
// call sites never branch on "is tracing on".
type Tracer struct {
	sampleEvery   atomic.Int64
	slowThreshold atomic.Int64
	reqSeq        atomic.Uint64
	seed          uint64
	rec           *Recorder
	rings         []ring
	ringMask      uint32
	phases        [numPhases]*obs.Histogram
	metrics       Metrics
	reqPool       sync.Pool
}

// New builds a Tracer. The per-phase histograms cover 100ns..~100ms,
// the span-duration range of a single request phase.
func New(o Options) *Tracer {
	n := nextPow2(runtime.GOMAXPROCS(0))
	slots := o.RingSlots
	if slots <= 0 {
		slots = 256
	}
	slots = nextPow2(slots)
	t := &Tracer{
		seed:     uint64(time.Now().UnixNano()),
		rec:      o.Recorder,
		rings:    make([]ring, n),
		ringMask: uint32(n - 1),
	}
	for i := range t.rings {
		t.rings[i].init(slots)
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

// End closes the span and publishes it to the striped rings.
func (s Spanner) End() {
	if s.r == nil {
		return
	}
	sp := &s.r.spans[s.i]
	sp.Dur = now() - sp.Start
	s.r.t.publish(sp)
}

// Finish ends the request trace: closes the root span (attaching the
// HTTP status), publishes it, feeds the attribution histograms when
// sampled, and hands the trace to the recorder when slow or sampled.
// It returns the request duration. The Req must not be used after.
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
	t.publish(root)
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

// End closes the span, publishes it to the rings, feeds attribution,
// and records it in the recorder's background timeline.
func (b *BgSpan) End() {
	if b == nil {
		return
	}
	b.sp.Dur = now() - b.sp.Start
	b.t.publish(&b.sp)
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

// Striped lock-free rings. One ring per logical CPU approximates
// per-P buffers without runtime internals: a publisher takes a ticket
// with one atomic add on the ring indexed by its span ID (cheap,
// uniformly distributed, no goroutine identity needed) and writes the
// slot under a slot-sequence seqlock; readers detect torn slots by
// re-checking the sequence. No locks, no allocation, publishers never
// wait.
type ring struct {
	pos   atomic.Uint64
	mask  uint64
	slots []ringSlot
}

type ringSlot struct {
	seq atomic.Uint64 // ticket of the occupying span; 0 = being written
	sp  Span
}

func (r *ring) init(slots int) {
	r.slots = make([]ringSlot, slots)
	r.mask = uint64(slots - 1)
}

// publish copies *sp into the next slot of the ring striped by span ID.
func (t *Tracer) publish(sp *Span) {
	r := &t.rings[uint32(sp.ID)&t.ringMask]
	ticket := r.pos.Add(1)
	slot := &r.slots[ticket&r.mask]
	slot.seq.Store(0) // mark torn
	slot.sp = *sp
	slot.seq.Store(ticket)
}

// snapshotRings copies every stably-published span out of the rings,
// newest writes included, torn slots skipped. Allocates; debug path
// only.
func (t *Tracer) snapshotRings() []Span {
	var out []Span
	for i := range t.rings {
		r := &t.rings[i]
		for j := range r.slots {
			slot := &r.slots[j]
			seq := slot.seq.Load()
			if seq == 0 {
				continue
			}
			sp := slot.sp
			if slot.seq.Load() != seq {
				continue // torn: overwritten mid-copy
			}
			out = append(out, sp)
		}
	}
	return out
}

func nextPow2(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
