package server

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ccf/internal/core"
	"ccf/internal/obs"
	"ccf/internal/shard"
	"ccf/internal/store"
	"ccf/internal/wire"
)

// metricsServer assembles a fully instrumented durable stack: obs
// registry, server registry with a store attached, and an httptest
// server with /metrics and /readyz wired.
func metricsServer(t *testing.T) (*obs.Registry, *Registry, *httptest.Server) {
	t.Helper()
	om, reg, s := metricsStack(t)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return om, reg, ts
}

// metricsStack is metricsServer's stack before any transport is
// attached, for tests that serve it over both HTTP and raw TCP.
func metricsStack(t *testing.T) (*obs.Registry, *Registry, *Server) {
	t.Helper()
	om := obs.NewRegistry()
	st, err := store.Open(store.Options{Dir: t.TempDir(), Fsync: store.FsyncNever})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	reg := NewRegistry(4)
	reg.AttachObs(om)
	reg.AttachStore(st)
	health := &Health{}
	health.SetReady(st.RecoveryStats().Unrecoverable)
	return om, reg, NewServer(reg, HandlerOptions{
		Metrics: om,
		Health:  health,
	})
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if err := obs.ValidateExposition(string(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	return string(body)
}

// TestMetricsEndpoint is the acceptance test for the exposition layer:
// after real traffic, /metrics serves valid Prometheus text whose
// families span every layer — HTTP, filter/shard, WAL/store, and
// recovery.
func TestMetricsEndpoint(t *testing.T) {
	_, _, ts := metricsServer(t)

	doJSON(t, ts, http.MethodPut, "/filters/movies", CreateRequest{
		Variant: "chained", Shards: 2, Capacity: 1 << 12, NumAttrs: 2, Seed: 7,
	}, nil)
	keys := []uint64{1, 2, 3, 4, 5}
	attrs := [][]uint64{{0, 1}, {1, 0}, {2, 1}, {3, 0}, {0, 0}}
	var ins InsertResponse
	doJSON(t, ts, http.MethodPost, "/filters/movies/insert",
		InsertRequest{Keys: keys, Attrs: attrs}, &ins)
	if ins.Accepted != len(keys) {
		t.Fatalf("Accepted = %d, want %d", ins.Accepted, len(keys))
	}
	var q QueryResponse
	doJSON(t, ts, http.MethodPost, "/filters/movies/query",
		QueryRequest{Keys: keys, Predicate: []CondJSON{{Attr: 0, Values: []uint64{0, 1, 2, 3}}}}, &q)

	text := scrape(t, ts)
	for _, want := range []string{
		// HTTP layer
		`ccfd_http_requests_total{endpoint="insert",code="2xx"} 1`,
		`ccfd_http_request_seconds_count{endpoint="query"} 1`,
		`ccfd_insert_rows_total{status="inserted"} 5`,
		`ccfd_insert_batch_rows_count 1`,
		`ccfd_query_batch_keys_sum 5`,
		// filter / shard layer
		`ccfd_filter_rows{filter="movies"} 5`,
		`ccfd_policy_grows_total{filter="movies"}`,
		`ccfd_shard_load_factor{filter="movies",shard="0"}`,
		`ccfd_ladder_levels{filter="movies"} 1`,
		// store layer
		`ccfd_wal_append_frames_total`,
		`ccfd_wal_group_commit_frames_count`,
		`ccfd_fold_queue_depth 0`,
		// recovery
		`ccfd_recovery_filters 0`,
		`ccfd_recovery_unrecoverable_filters 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsRowStatusCounts drives rows into a tiny filter until some
// fail, and checks the failures land in the right status series.
func TestMetricsRowStatusCounts(t *testing.T) {
	om, reg, ts := metricsServer(t)
	_, _ = om, reg

	doJSON(t, ts, http.MethodPut, "/filters/tiny", CreateRequest{
		Variant: "plain", Shards: 1, Capacity: 8, NumAttrs: 1, Seed: 1,
	}, nil)
	n := 4096
	keys := make([]uint64, n)
	attrs := make([][]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 17
		attrs[i] = []uint64{uint64(i % 2)}
	}
	var ins InsertResponse
	doJSON(t, ts, http.MethodPost, "/filters/tiny/insert",
		InsertRequest{Keys: keys, Attrs: attrs}, &ins)
	if ins.Accepted == n {
		t.Skip("tiny filter absorbed every row; no failure statuses to count")
	}

	text := scrape(t, ts)
	if !strings.Contains(text, `ccfd_insert_rows_total{status="full"}`) &&
		!strings.Contains(text, `ccfd_insert_rows_total{status="chain_limit"}`) {
		t.Errorf("no failure status series after %d rejected rows:\n%s",
			n-ins.Accepted, text)
	}
}

// TestDeleteUnregistersFilterSeries checks DELETE removes the filter's
// series from the exposition (PUT replaced them; DELETE drops them).
func TestDeleteUnregistersFilterSeries(t *testing.T) {
	_, _, ts := metricsServer(t)
	doJSON(t, ts, http.MethodPut, "/filters/gone", CreateRequest{
		Variant: "plain", Shards: 1, Capacity: 256, NumAttrs: 1,
	}, nil)
	if text := scrape(t, ts); !strings.Contains(text, `filter="gone"`) {
		t.Fatal("filter series absent after PUT")
	}
	doJSON(t, ts, http.MethodDelete, "/filters/gone", nil, nil)
	if text := scrape(t, ts); strings.Contains(text, `filter="gone"`) {
		t.Error("filter series survived DELETE")
	}
}

// TestReadyz covers the readiness split: 503 before recovery completes,
// 200 after, with the unrecoverable count surfaced either way — and the
// gate it drives: until ready, filter routes answer 503 not_ready with
// Retry-After in every codec and transport, so no write is acked before
// the store is attached.
func TestReadyz(t *testing.T) {
	reg := NewRegistry(4)
	health := &Health{}
	ts, addr := bothDoors(t, NewServer(reg, HandlerOptions{Health: health}))

	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-recovery /readyz = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"ready":false`) {
		t.Errorf("pre-recovery body = %s", body)
	}

	// Not ready: a PUT, a JSON query and /stats are refused before their
	// handlers run, and binary frames get a typed not_ready error over
	// HTTP and raw TCP alike.
	create := CreateRequest{Shards: 1, Capacity: 1 << 10, NumAttrs: 1, Seed: 1}
	for _, req := range []struct {
		method, path string
		body         any
	}{
		{http.MethodPut, "/filters/m", create},
		{http.MethodPost, "/filters/m/query", QueryRequest{Keys: []uint64{1}}},
		{http.MethodGet, "/stats", nil},
	} {
		resp := rawJSON(t, ts, req.method, req.path, req.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
			t.Fatalf("pre-recovery %s %s = %d (Retry-After %q), want 503 with Retry-After 1",
				req.method, req.path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	qframe := wire.AppendQuery(nil, "m", nil, []uint64{1}, false)
	assertBinaryRefused(t, ts, "/filters/m/query", addr, qframe,
		http.StatusServiceUnavailable, wire.KindNotReady, true)
	if _, ok := reg.Get("m"); ok {
		t.Fatal("a PUT was applied before the server was ready")
	}

	health.SetReady(2)
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery /readyz = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"unrecoverable_filters":2`) {
		t.Errorf("post-recovery body = %s", body)
	}

	// Ready: the same PUT and TCP query frame now serve.
	doJSON(t, ts, http.MethodPut, "/filters/m", create, nil)
	op, payload := tcpRoundTrip(t, addr, qframe)
	if op != wire.OpResult {
		re, _ := wire.DecodeError(payload)
		t.Fatalf("post-recovery TCP query answered %v %+v, want a result frame", op, re)
	}

	// /healthz stays pure liveness: it was 200 all along.
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", resp.StatusCode)
	}
}

// TestSlowQueryLog checks a request over the threshold produces a Warn
// line with the request fields and advances the slow counter.
func TestSlowQueryLog(t *testing.T) {
	reg, _ := testRegistry(t)
	om := obs.NewRegistry()
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	ts := httptest.NewServer(NewHandlerOpts(reg, HandlerOptions{
		Metrics:   om,
		Logger:    logger,
		SlowQuery: time.Nanosecond, // everything is slow
	}))
	defer ts.Close()

	var q QueryResponse
	doJSON(t, ts, http.MethodPost, "/filters/movies/query",
		QueryRequest{Keys: []uint64{1, 2, 3}}, &q)

	out := buf.String()
	for _, want := range []string{`"msg":"slow query"`, `"endpoint":"query"`, `"request_id":`, `"status":200`} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query log missing %s in %s", want, out)
		}
	}
	var m bytes.Buffer
	if err := om.WritePrometheus(&m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.String(), "ccfd_http_slow_requests_total 1") {
		t.Errorf("slow counter not advanced:\n%s", m.String())
	}
}

// TestHandlerWithoutObs checks the nil-options path still serves: no
// registry, no logger, no health — handlers count into a throwaway
// registry and /readyz reports ready.
func TestHandlerWithoutObs(t *testing.T) {
	reg := NewRegistry(4)
	if _, err := reg.Create("m", shard.Options{
		Params: core.Params{NumAttrs: 1, Capacity: 256},
	}, nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(reg))
	defer ts.Close()
	var q QueryResponse
	doJSON(t, ts, http.MethodPost, "/filters/m/query", QueryRequest{Keys: []uint64{9}}, &q)
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz without Health = %d, want 200", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics without a registry = %d, want 404", resp.StatusCode)
	}
}
