package trace

import (
	"net/http/httptest"
	"testing"
	"time"
)

func serveDebug(t *testing.T, tr *Tracer, target string) string {
	t.Helper()
	rr := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", target, nil))
	if rr.Code != 200 {
		t.Fatalf("GET %s = %d: %s", target, rr.Code, rr.Body.String())
	}
	return rr.Body.String()
}

func serveDebugCode(t *testing.T, tr *Tracer, target string) int {
	t.Helper()
	rr := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", target, nil))
	return rr.Code
}

// oneRequest walks the full pooled-request lifecycle with the span mix
// of a real query: decode, two shard probes with attributes, encode.
func oneRequest(tr *Tracer, traceparent string) {
	r := tr.StartRequest(traceparent)
	r.Start(PhaseDecode).Attr(AttrKeys, 64).End()
	for sh := int64(0); sh < 2; sh++ {
		r.Start(PhaseShardProbe).
			Attr(AttrShard, sh).Attr(AttrKeys, 32).Attr(AttrLevels, 1).End()
	}
	r.Start(PhaseEncode).End()
	tr.Finish(r, 200)
}

// TestRequestLifecycleZeroAllocUnsampled is the acceptance guard for
// "tracing enabled but unsampled": the full StartRequest → spans →
// Finish lifecycle must not allocate once the request pool is warm.
func TestRequestLifecycleZeroAllocUnsampled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	tr := New(Options{Recorder: NewRecorder(4, 4)})
	for i := 0; i < 64; i++ {
		oneRequest(tr, "")
	}
	if avg := testing.AllocsPerRun(500, func() { oneRequest(tr, "") }); avg != 0 {
		t.Fatalf("unsampled request lifecycle allocates %.1f/op, want 0", avg)
	}
}

// TestRequestLifecycleZeroAllocSampled: with -trace-sample 1 every
// request is captured; the recorder recycles per-slot span storage, so
// steady-state capture must also be allocation-free.
func TestRequestLifecycleZeroAllocSampled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	rec := NewRecorder(4, 4)
	tr := New(Options{SampleEvery: 1, Recorder: rec})
	// Warm past both ring capacities so every slot's span slice has
	// reached its steady-state capacity before counting.
	for i := 0; i < 64; i++ {
		oneRequest(tr, "")
	}
	if avg := testing.AllocsPerRun(500, func() { oneRequest(tr, "") }); avg != 0 {
		t.Fatalf("sampled request lifecycle allocates %.1f/op, want 0", avg)
	}
}

// TestRequestLifecycleZeroAllocPropagated covers the traceparent parse
// path: honoring an incoming header must not change the alloc story.
func TestRequestLifecycleZeroAllocPropagated(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	tr := New(Options{Recorder: NewRecorder(4, 4)})
	const tp = "00-0123456789abcdeffedcba9876543210-deadbeefcafef00d-00"
	for i := 0; i < 64; i++ {
		oneRequest(tr, tp)
	}
	if avg := testing.AllocsPerRun(500, func() { oneRequest(tr, tp) }); avg != 0 {
		t.Fatalf("propagated request lifecycle allocates %.1f/op, want 0", avg)
	}
}

func BenchmarkRequestLifecycleUnsampled(b *testing.B) {
	tr := New(Options{Recorder: NewRecorder(16, 16)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oneRequest(tr, "")
	}
}

func BenchmarkRequestLifecycleSampled(b *testing.B) {
	tr := New(Options{SampleEvery: 1, SlowThreshold: time.Hour, Recorder: NewRecorder(16, 16)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oneRequest(tr, "")
	}
}
