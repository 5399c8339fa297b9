package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ccf/internal/obs/trace"
	"ccf/internal/store"
)

// tracedServer boots a store-backed registry with tracing fully wired:
// every request sampled into the recorder, background spans from the
// store, and GET /debug/traces served.
func tracedServer(t *testing.T, opts trace.Options) (*httptest.Server, *store.Store, *trace.Tracer, *trace.Recorder) {
	t.Helper()
	rec := opts.Recorder
	if rec == nil {
		rec = trace.NewRecorder(8, 8)
		opts.Recorder = rec
	}
	tr := trace.New(opts)
	st, err := store.Open(store.Options{Dir: t.TempDir(), Fsync: store.FsyncAlways, Tracer: tr})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	reg := NewRegistry(4)
	reg.AttachStore(st)
	ts := httptest.NewServer(NewHandlerOpts(reg, HandlerOptions{Tracer: tr}))
	t.Cleanup(ts.Close)
	return ts, st, tr, rec
}

// phases extracts the phase sequence of a trace's spans in capture
// (start) order.
func phases(tr trace.Trace) []trace.Phase {
	out := make([]trace.Phase, len(tr.Spans))
	for i := range tr.Spans {
		out[i] = tr.Spans[i].Phase
	}
	return out
}

// TestTracedRequestCycle is the deterministic span-ordering test across
// a full PUT → insert → query → fold cycle against a durable filter:
// each request's trace must carry the expected phases in order, and the
// fold must land in the background timeline under the originating trace.
func TestTracedRequestCycle(t *testing.T) {
	ts, st, _, rec := tracedServer(t, trace.Options{SampleEvery: 1})

	doJSON(t, ts, "PUT", "/filters/t", CreateRequest{
		Variant: "chained", Shards: 2, Capacity: 4096, NumAttrs: 2,
	}, nil)
	keys := make([]uint64, 64)
	attrs := make([][]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 5
		attrs[i] = []uint64{uint64(i % 4), uint64(i % 6)}
	}
	var ins InsertResponse
	doJSON(t, ts, "POST", "/filters/t/insert", InsertRequest{Keys: keys, Attrs: attrs}, &ins)
	if ins.Accepted != len(keys) {
		t.Fatalf("accepted %d of %d", ins.Accepted, len(keys))
	}
	var q QueryResponse
	doJSON(t, ts, "POST", "/filters/t/query", QueryRequest{
		Keys: keys[:32], Predicate: []CondJSON{{Attr: 0, Values: []uint64{1}}},
	}, &q)
	if len(q.Results) != 32 {
		t.Fatalf("results = %d, want 32", len(q.Results))
	}

	traces := rec.Sampled()
	if len(traces) != 3 {
		t.Fatalf("sampled traces = %d, want 3 (create, insert, query)", len(traces))
	}
	insertPh, queryPh := phases(traces[1]), phases(traces[2])

	// Insert: root, decode, then the durable write pipeline in commit
	// order — WAL append before the in-memory apply before the group-
	// commit fsync wait — then encode.
	wantInsert := []trace.Phase{
		trace.PhaseRequest, trace.PhaseDecode, trace.PhaseWALAppend,
		trace.PhaseApply, trace.PhaseFsyncWait, trace.PhaseEncode,
	}
	if len(insertPh) != len(wantInsert) {
		t.Fatalf("insert spans = %v, want %v", insertPh, wantInsert)
	}
	for i := range wantInsert {
		if insertPh[i] != wantInsert[i] {
			t.Fatalf("insert span %d = %s, want %s", i, insertPh[i], wantInsert[i])
		}
	}
	// Query: root, decode, one shard_probe per non-empty shard group,
	// encode last.
	if queryPh[0] != trace.PhaseRequest || queryPh[1] != trace.PhaseDecode ||
		queryPh[len(queryPh)-1] != trace.PhaseEncode {
		t.Fatalf("query phases = %v", queryPh)
	}
	probes := 0
	for _, p := range queryPh[2 : len(queryPh)-1] {
		if p != trace.PhaseShardProbe {
			t.Fatalf("query phases = %v: unexpected %s between decode and encode", queryPh, p)
		}
		probes++
	}
	if probes < 1 || probes > 2 {
		t.Fatalf("shard_probe spans = %d, want 1..2 (2 shards)", probes)
	}
	for _, sp := range traces[2].Spans {
		if sp.Phase != trace.PhaseShardProbe {
			continue
		}
		for _, k := range []trace.AttrKey{
			trace.AttrShard, trace.AttrKeys, trace.AttrLevels,
		} {
			if _, ok := sp.Attr(k); !ok {
				t.Fatalf("shard_probe span missing %s attribute", k)
			}
		}
	}

	// Fold with an origin trace: the background span must join the
	// originating request's trace and carry the folded row count.
	origin := traces[1].Spans[0].Trace()
	fl := st.Get("t")
	if fl == nil {
		t.Fatal("store lost filter t")
	}
	fl.RequestFoldFrom(origin) // arms the origin handoff
	if err := fl.Fold(); err != nil {
		t.Fatalf("Fold: %v", err)
	}
	var fold *trace.Span
	for _, sp := range rec.Background() {
		if sp.Phase == trace.PhaseFold {
			fold = &sp
			break
		}
	}
	if fold == nil {
		t.Fatal("no fold span in background timeline")
	}
	if fold.Trace() != origin {
		t.Fatalf("fold trace = %v, want originating insert trace %v", fold.Trace(), origin)
	}
	if rows, ok := fold.Attr(trace.AttrRows); !ok || rows != int64(len(keys)) {
		t.Fatalf("fold rows attr = %d, %v, want %d", rows, ok, len(keys))
	}
}

// TestTraceparentPropagationHTTP: an incoming W3C traceparent header is
// honored end to end — the server's trace joins the caller's trace, the
// response carries a Traceparent parented on this request's root span,
// and the sampled flag forces capture even with sampling off.
func TestTraceparentPropagationHTTP(t *testing.T) {
	ts, _, _, rec := tracedServer(t, trace.Options{}) // sampling off
	doJSON(t, ts, "PUT", "/filters/t", CreateRequest{Shards: 1, Capacity: 1024, NumAttrs: 1}, nil)

	const in = "00-0123456789abcdeffedcba9876543210-00f067aa0ba902b7-01"
	body, _ := json.Marshal(QueryRequest{Keys: []uint64{1, 2, 3}})
	req, err := http.NewRequest("POST", ts.URL+"/filters/t/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", in)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	out := resp.Header.Get("Traceparent")
	id, parent, flags, ok := trace.ParseTraceparent(out)
	if !ok {
		t.Fatalf("response Traceparent %q does not parse", out)
	}
	if id.String() != "0123456789abcdeffedcba9876543210" {
		t.Fatalf("response trace ID = %s, want caller's", id)
	}
	if flags&trace.FlagSampled == 0 {
		t.Fatal("sampled flag dropped")
	}
	// The parent must be this server's root span, not the remote one.
	if parent == 0x00f067aa0ba902b7 {
		t.Fatal("response parented on the remote span, not our root")
	}
	// flag 01 forces capture into the sampled ring despite SampleEvery=0.
	var got *trace.Trace
	for _, tr := range rec.Sampled() {
		if tr.Spans[0].Trace() == id {
			got = &tr
			break
		}
	}
	if got == nil {
		t.Fatal("remotely-sampled trace not captured")
	}
	if got.Spans[0].Parent != 0x00f067aa0ba902b7 {
		t.Fatalf("captured root parent = %x, want remote span", got.Spans[0].Parent)
	}
}

// TestSlowRequestInDebugEndpoint: a request over -slow-query is pinned
// and retrievable from GET /debug/traces in both JSON and text form.
func TestSlowRequestInDebugEndpoint(t *testing.T) {
	ts, _, tr, _ := tracedServer(t, trace.Options{SlowThreshold: time.Nanosecond})
	_ = tr
	doJSON(t, ts, "PUT", "/filters/t", CreateRequest{Shards: 2, Capacity: 4096, NumAttrs: 1}, nil)
	keys := []uint64{1, 2, 3}
	doJSON(t, ts, "POST", "/filters/t/insert", InsertRequest{Keys: keys, Attrs: [][]uint64{{1}, {2}, {3}}}, nil)
	doJSON(t, ts, "POST", "/filters/t/query", QueryRequest{Keys: keys}, nil)

	resp, err := ts.Client().Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Slow []struct {
			TraceID string `json:"trace_id"`
			Slow    bool   `json:"slow"`
			Spans   []struct {
				Phase string           `json:"phase"`
				Attrs map[string]int64 `json:"attrs"`
			} `json:"spans"`
		} `json:"slow"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("decode /debug/traces: %v", err)
	}
	resp.Body.Close()
	if len(dump.Slow) < 3 {
		t.Fatalf("slow traces = %d, want >= 3", len(dump.Slow))
	}
	seen := map[string]bool{}
	for _, s := range dump.Slow {
		if !s.Slow || s.TraceID == "" {
			t.Fatalf("malformed slow trace %+v", s)
		}
		for _, sp := range s.Spans {
			seen[sp.Phase] = true
			if sp.Phase == "shard_probe" {
				if _, ok := sp.Attrs["levels"]; !ok {
					t.Fatal("shard_probe span lost levels attr over JSON")
				}
			}
		}
	}
	for _, want := range []string{"request", "decode", "shard_probe", "wal_append", "fsync_wait", "encode"} {
		if !seen[want] {
			t.Errorf("phase %s missing from /debug/traces (have %v)", want, seen)
		}
	}

	txt, err := ts.Client().Get(ts.URL + "/debug/traces?format=text")
	if err != nil {
		t.Fatal(err)
	}
	b := new(bytes.Buffer)
	b.ReadFrom(txt.Body)
	txt.Body.Close()
	for _, want := range []string{"SLOW", "shard_probe", "wal_append"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("waterfall missing %q:\n%s", want, b.String())
		}
	}
}

// TestUntracedServerUnchanged: with no Tracer the handler serves
// identically and /debug/traces is absent.
func TestUntracedServerUnchanged(t *testing.T) {
	reg := NewRegistry(0)
	ts := httptest.NewServer(NewHandler(reg))
	defer ts.Close()
	doJSON(t, ts, "PUT", "/filters/t", CreateRequest{Shards: 1, Capacity: 256, NumAttrs: 1}, nil)
	var q QueryResponse
	resp := doJSON(t, ts, "POST", "/filters/t/query", QueryRequest{Keys: []uint64{9}}, &q)
	if resp.Header.Get("Traceparent") != "" {
		t.Fatal("untraced server emitted a Traceparent header")
	}
	r, err := ts.Client().Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/traces without tracer = %d, want 404", r.StatusCode)
	}
}
