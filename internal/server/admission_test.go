package server

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ccf/internal/fault"
	"ccf/internal/obs"
	"ccf/internal/store"
	"ccf/internal/wire"
)

// TestLimiterQueueAndShed drives the limiter through its three
// outcomes: immediate admission, a bounded queue that hands the slot
// over on release, and sheds for queue-full and queue-timeout.
func TestLimiterQueueAndShed(t *testing.T) {
	l := newLimiter(AdmissionOptions{MaxInflight: 1, MaxQueue: 1, QueueTimeout: 50 * time.Millisecond})

	if reason := l.acquire(nil); reason != "" {
		t.Fatalf("first acquire shed with %q", reason)
	}
	// Fill the queue with a waiter.
	got := make(chan string, 1)
	go func() { got <- l.acquire(nil) }()
	waitFor(t, time.Second, func() bool { return l.queueDepth() == 1 }, "waiter never queued")

	// Queue full: the next arrival sheds immediately.
	if reason := l.acquire(nil); reason != shedQueueFull {
		t.Fatalf("over-queue acquire: got %q, want %q", reason, shedQueueFull)
	}

	// Releasing the slot admits the queued waiter.
	l.release()
	if reason := <-got; reason != "" {
		t.Fatalf("queued acquire shed with %q", reason)
	}

	// With the slot held and nobody releasing, a queued request times out.
	if reason := l.acquire(nil); reason != shedQueueTimeout {
		t.Fatalf("timed-out acquire: got %q, want %q", reason, shedQueueTimeout)
	}
	l.release()
	if l.inflight() != 0 || l.queueDepth() != 0 {
		t.Fatalf("limiter did not drain: inflight=%d queued=%d", l.inflight(), l.queueDepth())
	}
}

// waitFor polls cond up to d (test helper shared with the store
// package's style).
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out after %s: %s", d, msg)
}

// TestWrapShedsWithRetryAfter pins the HTTP shape of a shed: with the
// single slot held by a blocked request, the next one answers 503 with
// Retry-After without entering the handler, and the shed counter moves.
// A binary request is shed in its own codec: an error frame of kind
// overloaded, as the raw-TCP listener answers.
func TestWrapShedsWithRetryAfter(t *testing.T) {
	sm := newServerMetrics(nil)
	lim := newLimiter(AdmissionOptions{MaxInflight: 1, MaxQueue: 0})
	block, entered := make(chan struct{}), make(chan struct{})
	h := sm.wrap("test", nil, 0, nil, nil, lim, 0, func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-block
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/x", nil))
	}()
	<-entered

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if !strings.Contains(rec.Body.String(), shedQueueFull) {
		t.Fatalf("shed body %q does not name the reason", rec.Body.String())
	}
	if sm.shed[shedQueueFull].Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", sm.shed[shedQueueFull].Value())
	}

	rec = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/x", nil)
	req.Header.Set("Content-Type", wire.ContentType)
	h(rec, req)
	resp := rec.Result()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("binary shed: status %d, Retry-After %q; want 503 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	op, payload := readFrame(t, resp)
	if op != wire.OpError {
		t.Fatalf("binary shed: response op %v, want an error frame", op)
	}
	if re, err := wire.DecodeError(payload); err != nil || re.Code != http.StatusServiceUnavailable ||
		re.Kind != wire.KindOverloaded || !strings.Contains(re.Msg, shedQueueFull) {
		t.Fatalf("binary shed: error frame %+v (%v), want 503 overloaded naming %s", re, err, shedQueueFull)
	}
	close(block)
	wg.Wait()
}

// bothDoors serves s over HTTP and over raw TCP, returning the HTTP test
// server and the wire listener's address.
func bothDoors(t *testing.T, s *Server) (*httptest.Server, string) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, startWireServer(t, s)
}

// tcpRoundTrip sends one frame over a fresh raw-TCP connection and
// returns the response frame.
func tcpRoundTrip(t *testing.T, addr string, frame []byte) (wire.Op, []byte) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write frame: %v", err)
	}
	var buf wire.Buffer
	op, payload, err := wire.ReadFrame(conn, &buf, 0)
	if err != nil {
		t.Fatalf("read response frame: %v", err)
	}
	return op, append([]byte(nil), payload...)
}

// assertBinaryRefused is the codec-parity check of the request core's
// typed failure: frame, sent as binary over HTTP to path and over raw
// TCP to addr, must be refused on both with HTTP status code and error
// kind — the status the JSON codec answers — and the HTTP leg must carry
// Retry-After exactly when retryAfter says the JSON answer does.
func assertBinaryRefused(t *testing.T, ts *httptest.Server, path, addr string, frame []byte,
	code int, kind wire.ErrKind, retryAfter bool) {
	t.Helper()
	check := func(leg string, op wire.Op, payload []byte) {
		t.Helper()
		if op != wire.OpError {
			t.Fatalf("%s: response op %v, want an error frame", leg, op)
		}
		re, err := wire.DecodeError(payload)
		if err != nil || re.Code != code || re.Kind != kind {
			t.Fatalf("%s: error frame %+v (%v), want %d %s", leg, re, err, code, kind)
		}
	}
	resp := postFrame(t, ts, path, frame)
	if resp.StatusCode != code {
		t.Fatalf("binary/http %s: status %d, want %d", path, resp.StatusCode, code)
	}
	if got := resp.Header.Get("Retry-After") != ""; got != retryAfter {
		t.Fatalf("binary/http %s: Retry-After present = %v, want %v", path, got, retryAfter)
	}
	op, payload := readFrame(t, resp)
	check("binary/http "+path, op, payload)
	op, payload = tcpRoundTrip(t, addr, frame)
	check("binary/tcp", op, payload)
}

// TestRateLimitedInsert429 creates a filter with a token-bucket rate
// limit via PUT and verifies the over-budget batch answers 429 with a
// Retry-After hint while the in-budget one landed — as JSON, as binary
// over HTTP, and as binary over raw TCP.
func TestRateLimitedInsert429(t *testing.T) {
	_, _, s := metricsStack(t)
	ts, addr := bothDoors(t, s)
	doJSON(t, ts, http.MethodPut, "/filters/limited", CreateRequest{
		Shards: 1, Capacity: 1 << 12, NumAttrs: 1, Seed: 1,
		RateLimit: &RateLimitPolicy{RPS: 1, Burst: 4},
	}, nil)

	var ins InsertResponse
	doJSON(t, ts, http.MethodPost, "/filters/limited/insert",
		InsertRequest{Keys: []uint64{1, 2, 3, 4}, Attrs: [][]uint64{{0}, {0}, {0}, {0}}}, &ins)
	if ins.Accepted != 4 {
		t.Fatalf("in-budget insert accepted %d rows, want 4", ins.Accepted)
	}

	// The bucket is empty (refill is 1 token/s): the next batch is
	// throttled.
	body := `{"keys":[5],"attrs":[[0]]}`
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/filters/limited/insert", strings.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget insert status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}

	// Queries spend from the same bucket.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/filters/limited/query",
		strings.NewReader(`{"keys":[1,2,3]}`))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget query status = %d, want 429", resp2.StatusCode)
	}

	// Binary requests spend from the same bucket and map the refusal to
	// the same status, typed rate_limited.
	assertBinaryRefused(t, ts, "/filters/limited/insert", addr,
		wire.AppendInsert(nil, "limited", []uint64{5, 6, 7}, []uint64{0, 0, 0}, 1),
		http.StatusTooManyRequests, wire.KindRateLimited, true)
	assertBinaryRefused(t, ts, "/filters/limited/query", addr,
		wire.AppendQuery(nil, "limited", nil, []uint64{1, 2, 3}, false),
		http.StatusTooManyRequests, wire.KindRateLimited, true)

	// /stats reports the policy.
	var stats StatsResponse
	doJSON(t, ts, http.MethodGet, "/stats", nil, &stats)
	rl := stats.Filters["limited"].RateLimit
	if rl == nil || rl.RPS != 1 || rl.Burst != 4 {
		t.Fatalf("stats rate_limit = %+v, want rps=1 burst=4", rl)
	}
}

// TestRequestDeadline504 serves with a deadline that has effectively
// already expired and verifies both batch endpoints turn it into 504 at
// their cancellation checkpoints, in both codecs and over both
// transports.
func TestRequestDeadline504(t *testing.T) {
	reg, _ := testRegistry(t)
	ts, addr := bothDoors(t, NewServer(reg, HandlerOptions{
		Admission: AdmissionOptions{RequestTimeout: time.Nanosecond},
	}))

	for _, tc := range []struct{ path, body string }{
		{"/filters/movies/insert", `{"keys":[1],"attrs":[[0,0]]}`},
		{"/filters/movies/query", `{"keys":[1,2,3]}`},
	} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s under 1ns deadline: status %d, want 504", tc.path, resp.StatusCode)
		}
	}
	assertBinaryRefused(t, ts, "/filters/movies/insert", addr,
		wire.AppendInsert(nil, "movies", []uint64{1}, []uint64{0, 0}, 2),
		http.StatusGatewayTimeout, wire.KindDeadline, false)
	assertBinaryRefused(t, ts, "/filters/movies/query", addr,
		wire.AppendQuery(nil, "movies", nil, []uint64{1, 2, 3}, false),
		http.StatusGatewayTimeout, wire.KindDeadline, false)
}

// TestDegradedFilterHTTP is the serving-layer half of degraded mode: an
// injected fsync failure flips the filter to read-only, writes answer
// 503 + Retry-After (typed degraded on the binary codec, over HTTP and
// raw TCP) while queries keep answering 200, /readyz lists the filter
// (name + reason) and stays ready, and the degraded gauge is scraped as
// 1.
func TestDegradedFilterHTTP(t *testing.T) {
	sched, err := fault.Parse("fsync:4-:enospc")
	if err != nil {
		t.Fatal(err)
	}
	om := obs.NewRegistry()
	st, err := store.Open(store.Options{
		Dir:   t.TempDir(),
		Fsync: store.FsyncAlways,
		FS:    fault.New(fault.OS, sched),
		// Keep the probe from re-arming mid-test (the fault never clears
		// anyway, but a long floor avoids log spam).
		RearmMin: time.Minute, RearmMax: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	reg := NewRegistry(4)
	reg.AttachObs(om)
	reg.AttachStore(st)
	ts, addr := bothDoors(t, NewServer(reg, HandlerOptions{Metrics: om}))

	doJSON(t, ts, http.MethodPut, "/filters/f", CreateRequest{
		Shards: 1, Capacity: 1 << 12, NumAttrs: 1, Seed: 1,
	}, nil)
	// fsync #3 (first insert) is fine, #4 (second) trips ENOSPC.
	var ins InsertResponse
	doJSON(t, ts, http.MethodPost, "/filters/f/insert",
		InsertRequest{Keys: []uint64{1}, Attrs: [][]uint64{{0}}}, &ins)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/filters/f/insert",
		strings.NewReader(`{"keys":[2],"attrs":[[0]]}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degrading insert status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 missing Retry-After")
	}
	assertBinaryRefused(t, ts, "/filters/f/insert", addr,
		wire.AppendInsert(nil, "f", []uint64{3}, []uint64{0}, 1),
		http.StatusServiceUnavailable, wire.KindDegraded, true)

	// Reads keep serving.
	var q QueryResponse
	doJSON(t, ts, http.MethodPost, "/filters/f/query", QueryRequest{Keys: []uint64{1}}, &q)
	if len(q.Results) != 1 || !q.Results[0] {
		t.Fatalf("degraded filter lost reads: %+v", q.Results)
	}

	// /readyz stays ready but lists the degraded filter.
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rz.Body.Close()
	if rz.StatusCode != http.StatusOK {
		t.Fatalf("/readyz status = %d, want 200 (reads still serve)", rz.StatusCode)
	}
	var rzBody struct {
		Ready    bool                   `json:"ready"`
		Degraded []store.DegradedFilter `json:"degraded_filters"`
	}
	if err := json.NewDecoder(rz.Body).Decode(&rzBody); err != nil {
		t.Fatal(err)
	}
	if len(rzBody.Degraded) != 1 || rzBody.Degraded[0].Name != "f" || rzBody.Degraded[0].Reason != "enospc" {
		t.Fatalf("/readyz degraded_filters = %+v, want one enospc entry for %q", rzBody.Degraded, "f")
	}

	text := scrape(t, ts)
	for _, want := range []string{
		"ccfd_store_degraded 1",
		"ccfd_wal_poisoned_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
