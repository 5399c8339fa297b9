package trace

import (
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	id := ID{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	s := FormatTraceparent(id, 0xdeadbeefcafef00d, FlagSampled)
	if len(s) != 55 {
		t.Fatalf("len = %d, want 55", len(s))
	}
	if s != "00-0123456789abcdeffedcba9876543210-deadbeefcafef00d-01" {
		t.Fatalf("formatted %q", s)
	}
	got, parent, flags, ok := ParseTraceparent(s)
	if !ok || got != id || parent != 0xdeadbeefcafef00d || flags != FlagSampled {
		t.Fatalf("round trip: id=%v parent=%x flags=%x ok=%v", got, parent, flags, ok)
	}
}

func TestTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-0123456789abcdeffedcba9876543210-deadbeefcafef00d-0",  // short
		"01-0123456789abcdeffedcba9876543210-deadbeefcafef00d-01", // version
		"00-00000000000000000000000000000000-deadbeefcafef00d-01", // zero trace
		"00-0123456789abcdeffedcba9876543210-0000000000000000-01", // zero parent
		"00-0123456789ABCDEFFEDCBA9876543210-deadbeefcafef00d-01", // uppercase
		"00_0123456789abcdeffedcba9876543210-deadbeefcafef00d-01", // separator
		"00-0123456789abcdeffedcba987654321g-deadbeefcafef00d-01", // non-hex
	}
	for _, s := range bad {
		if _, _, _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", s)
		}
	}
}

func TestIDString(t *testing.T) {
	id := ID{Hi: 0xab, Lo: 1}
	if got := id.String(); got != "00000000000000ab0000000000000001" {
		t.Fatalf("String() = %q", got)
	}
	if !(ID{}).IsZero() || id.IsZero() {
		t.Fatal("IsZero misclassified")
	}
}

func TestRequestSpanOrdering(t *testing.T) {
	rec := NewRecorder(4, 4)
	tr := New(Options{SampleEvery: 1, Recorder: rec})
	r := tr.StartRequest("")
	if r == nil {
		t.Fatal("nil Req from live tracer")
	}
	tid := r.TraceID()
	if tid.IsZero() {
		t.Fatal("zero trace ID")
	}
	r.Start(PhaseDecode).Attr(AttrRows, 3).End()
	r.Start(PhaseShardProbe).
		Attr(AttrShard, 1).Attr(AttrKeys, 3).Attr(AttrLevels, 1).End()
	r.Start(PhaseEncode).End()
	tr.Finish(r, 200)

	traces := rec.Sampled()
	if len(traces) != 1 {
		t.Fatalf("sampled traces = %d, want 1", len(traces))
	}
	spans := traces[0].Spans
	want := []Phase{PhaseRequest, PhaseDecode, PhaseShardProbe, PhaseEncode}
	if len(spans) != len(want) {
		t.Fatalf("spans = %d, want %d", len(spans), len(want))
	}
	root := spans[0]
	if root.Trace() != tid || root.Parent != 0 {
		t.Fatalf("root span identity: trace=%v parent=%x", root.Trace(), root.Parent)
	}
	if st, ok := root.Attr(AttrStatus); !ok || st != 200 {
		t.Fatalf("root status attr = %d, %v", st, ok)
	}
	for i, sp := range spans {
		if sp.Phase != want[i] {
			t.Errorf("span %d phase = %s, want %s", i, sp.Phase, want[i])
		}
		if sp.Trace() != tid {
			t.Errorf("span %d trace = %v, want %v", i, sp.Trace(), tid)
		}
		if i > 0 && sp.Parent != root.ID {
			t.Errorf("span %d parent = %x, want root %x", i, sp.Parent, root.ID)
		}
		if sp.Dur < 0 {
			t.Errorf("span %d negative duration", i)
		}
	}
	if n, ok := spans[2].Attr(AttrLevels); !ok || n != 1 {
		t.Fatalf("shard_probe levels attr = %d, %v", n, ok)
	}
	if req, probe := tr.PhaseHistogram(PhaseRequest).Count(), tr.PhaseHistogram(PhaseShardProbe).Count(); req != 1 || probe != 1 {
		t.Fatalf("attribution: request count %d, shard_probe count %d, want 1 and 1", req, probe)
	}
}

func TestIncomingTraceparentPropagates(t *testing.T) {
	tr := New(Options{})
	in := FormatTraceparent(ID{Hi: 7, Lo: 9}, 0x42, FlagSampled)
	r := tr.StartRequest(in)
	if r.TraceID() != (ID{Hi: 7, Lo: 9}) {
		t.Fatalf("trace ID = %v, want propagated", r.TraceID())
	}
	if !r.Sampled() {
		t.Fatal("sampled flag not honored")
	}
	if r.spans[0].Parent != 0x42 {
		t.Fatalf("root parent = %x, want remote 0x42", r.spans[0].Parent)
	}
	out := r.Traceparent()
	oid, parent, flags, ok := ParseTraceparent(out)
	if !ok || oid != (ID{Hi: 7, Lo: 9}) || flags&FlagSampled == 0 {
		t.Fatalf("outgoing traceparent %q (ok=%v id=%v flags=%x)", out, ok, oid, flags)
	}
	if parent != r.spans[0].ID {
		t.Fatalf("outgoing parent = %x, want root span %x", parent, r.spans[0].ID)
	}
	tr.Finish(r, 200)
}

func TestSlowRequestPinned(t *testing.T) {
	rec := NewRecorder(2, 2)
	tr := New(Options{SlowThreshold: time.Nanosecond, Recorder: rec})
	for i := 0; i < 5; i++ {
		r := tr.StartRequest("")
		r.Start(PhaseDecode).End()
		time.Sleep(time.Microsecond)
		tr.Finish(r, 200)
	}
	slow := rec.Slow()
	if len(slow) != 2 {
		t.Fatalf("slow ring = %d traces, want cap 2", len(slow))
	}
	for _, s := range slow {
		if !s.Slow {
			t.Fatal("trace in slow ring not marked slow")
		}
	}
	// Newest last: eviction preserves capture order.
	if slow[0].Spans[0].Start > slow[1].Spans[0].Start {
		t.Fatal("slow traces not ordered oldest-first")
	}
	if got := tr.TracerMetrics().SlowCaptured.Value(); got != 5 {
		t.Fatalf("SlowCaptured = %d, want 5", got)
	}
	if len(rec.Sampled()) != 0 {
		t.Fatal("slow traces leaked into sampled ring")
	}
}

func TestSpanOverflowDropsNotAllocates(t *testing.T) {
	tr := New(Options{})
	r := tr.StartRequest("")
	for i := 0; i < maxReqSpans+10; i++ {
		r.Start(PhaseDecode).End()
	}
	if got := tr.TracerMetrics().SpansDropped.Value(); got != 11 {
		// maxReqSpans-1 child slots after the root.
		t.Fatalf("SpansDropped = %d, want 11", got)
	}
	tr.Finish(r, 200)
}

func TestBackgroundSpans(t *testing.T) {
	rec := NewRecorder(1, 1)
	tr := New(Options{Recorder: rec})
	origin := ID{Hi: 3, Lo: 4}
	bg := tr.StartBackground(PhaseCheckpoint, origin)
	if bg.TraceID() != origin {
		t.Fatalf("origin trace = %v, want %v", bg.TraceID(), origin)
	}
	bg.Attr(AttrSeq, 12).Attr(AttrBytes, 4096).End()

	fresh := tr.StartBackground(PhaseFold, ID{})
	if fresh.TraceID().IsZero() {
		t.Fatal("zero-origin background span did not mint a trace ID")
	}
	fresh.End()

	spans := rec.Background()
	if len(spans) != 2 {
		t.Fatalf("background spans = %d, want 2", len(spans))
	}
	if spans[0].Phase != PhaseCheckpoint || spans[1].Phase != PhaseFold {
		t.Fatalf("background order: %s, %s", spans[0].Phase, spans[1].Phase)
	}
	if v, ok := spans[0].Attr(AttrBytes); !ok || v != 4096 {
		t.Fatalf("checkpoint bytes attr = %d, %v", v, ok)
	}
	if n := tr.PhaseHistogram(PhaseCheckpoint).Count(); n != 1 {
		t.Fatalf("background attribution: checkpoint count %d, want 1", n)
	}
}

// TestCallSiteAttrsSurvive opens one span per call site in the serving
// packages, with that site's attributes, and checks that the recorder
// keeps every attribute after End (and the root's status after Finish).
// A span holds at most maxAttrs attributes and drops the rest silently,
// so a call site that gains one must be added here.
func TestCallSiteAttrsSurvive(t *testing.T) {
	for _, site := range []struct {
		name  string
		phase Phase
		keys  []AttrKey
		bg    bool
	}{
		{"shard.queryShardGroup", PhaseShardProbe, []AttrKey{AttrShard, AttrKeys, AttrLevels}, false},
		{"server.queryFrame/decode", PhaseDecode, []AttrKey{AttrKeys, AttrBytes}, false},
		{"server.queryFrame/encode", PhaseEncode, []AttrKey{AttrKeys, AttrBytes}, false},
		{"server.insertFrame/decode", PhaseDecode, []AttrKey{AttrRows, AttrBytes}, false},
		{"server.insertFrame/encode", PhaseEncode, []AttrKey{AttrRows, AttrBytes}, false},
		{"server.buildMux/insert-decode", PhaseDecode, []AttrKey{AttrRows}, false},
		{"server.buildMux/query-decode", PhaseDecode, []AttrKey{AttrKeys}, false},
		{"server.Entry.InsertBatch", PhaseApply, []AttrKey{AttrRows}, false},
		{"server.Entry.maybeAutoGrow", PhaseGrow, []AttrKey{AttrShard, AttrLevels}, false},
		{"store.InsertBatchTraced/wal", PhaseWALAppend, []AttrKey{AttrRows, AttrSeq}, false},
		{"store.InsertBatchTraced/apply", PhaseApply, []AttrKey{AttrRows}, false},
		{"store.InsertBatchTraced/fsync", PhaseFsyncWait, []AttrKey{AttrSeq}, false},
		{"store.Open", PhaseRecovery, []AttrKey{AttrFilters, AttrRecords}, true},
		{"store.Checkpoint", PhaseCheckpoint, []AttrKey{AttrSeq, AttrBytes}, true},
		{"store.Fold", PhaseFold, []AttrKey{AttrRows}, true},
	} {
		rec := NewRecorder(1, 1)
		tr := New(Options{SampleEvery: 1, Recorder: rec})
		var sp Span
		if site.bg {
			bg := tr.StartBackground(site.phase, ID{})
			for i, k := range site.keys {
				bg.Attr(k, int64(100+i))
			}
			bg.End()
			sp = rec.Background()[0]
		} else {
			r := tr.StartRequest("")
			s := r.Start(site.phase)
			for i, k := range site.keys {
				s.Attr(k, int64(100+i))
			}
			s.End()
			tr.Finish(r, 201)
			spans := rec.Sampled()[0].Spans
			if st, ok := spans[0].Attr(AttrStatus); !ok || st != 201 {
				t.Errorf("%s: root status = %d, %v; want 201", site.name, st, ok)
			}
			sp = spans[1]
		}
		for i, k := range site.keys {
			if v, ok := sp.Attr(k); !ok || v != int64(100+i) {
				t.Errorf("%s: %s attr = %d, %v; want %d", site.name, k, v, ok, 100+i)
			}
		}
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	r := tr.StartRequest("00-0123456789abcdeffedcba9876543210-deadbeefcafef00d-01")
	if r != nil {
		t.Fatal("nil tracer produced a Req")
	}
	// Every downstream call must be a no-op, not a panic.
	r.Start(PhaseDecode).Attr(AttrRows, 1).End()
	if r.TraceID() != (ID{}) || r.Sampled() || r.Traceparent() != "" {
		t.Fatal("nil Req leaked state")
	}
	if tr.Finish(r, 200) != 0 {
		t.Fatal("nil Finish returned a duration")
	}
	bg := tr.StartBackground(PhaseFold, ID{})
	bg.Attr(AttrRows, 1).End()
	if bg.TraceID() != (ID{}) {
		t.Fatal("nil BgSpan leaked state")
	}
	if tr.SampleEvery() != 0 {
		t.Fatal("nil tracer reported state")
	}
	if tr.TracerMetrics() != nil {
		t.Fatal("nil tracer returned handles")
	}
	for _, p := range Phases() {
		if tr.PhaseHistogram(p) != nil {
			t.Fatalf("nil tracer returned a %s histogram", p)
		}
	}
}

func TestDebugHandlerJSONAndText(t *testing.T) {
	rec := NewRecorder(4, 4)
	tr := New(Options{SampleEvery: 1, SlowThreshold: time.Nanosecond, Recorder: rec})
	r := tr.StartRequest("")
	r.Start(PhaseDecode).Attr(AttrKeys, 2).End()
	r.Start(PhaseShardProbe).Attr(AttrShard, 0).Attr(AttrLevels, 1).End()
	time.Sleep(time.Microsecond)
	tr.Finish(r, 200)
	tr.StartBackground(PhaseFold, r.TraceID()).End()

	js := serveDebug(t, tr, "/debug/traces")
	for _, want := range []string{`"slow"`, `"sampled"`, `"background"`, `"shard_probe"`, `"levels"`, `"fold"`} {
		if !strings.Contains(js, want) {
			t.Errorf("JSON dump missing %s:\n%s", want, js)
		}
	}
	txt := serveDebug(t, tr, "/debug/traces?format=text")
	for _, want := range []string{"SLOW", "trace ", "decode", "shard_probe", "levels=1", "fold"} {
		if !strings.Contains(txt, want) {
			t.Errorf("waterfall missing %q:\n%s", want, txt)
		}
	}
	var nilTr *Tracer
	if got := serveDebugCode(t, nilTr, "/debug/traces"); got != 404 {
		t.Fatalf("nil tracer handler status = %d, want 404", got)
	}
}
