package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"ccf/internal/core"
	"ccf/internal/obs"
	"ccf/internal/obs/trace"
	"ccf/internal/shard"
	"ccf/internal/wire"
)

func jsonBody(v any) ([]byte, error) { return json.Marshal(v) }

func decodeBody(t *testing.T, rec *httptest.ResponseRecorder, out any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("unmarshal %q: %v", rec.Body.Bytes(), err)
	}
}

func decodeInserted(t *testing.T, rec *httptest.ResponseRecorder) wire.Inserted {
	t.Helper()
	var buf wire.Buffer
	op, payload, err := wire.ReadFrame(bytes.NewReader(rec.Body.Bytes()), &buf, 0)
	if err != nil || op != wire.OpInserted {
		t.Fatalf("inserted frame: op=%v err=%v body=%q", op, err, rec.Body.Bytes())
	}
	ins, err := wire.DecodeInserted(payload)
	if err != nil {
		t.Fatalf("DecodeInserted: %v", err)
	}
	ins.Statuses = append([]byte(nil), ins.Statuses...)
	if len(ins.Statuses) == 0 {
		ins.Statuses = nil
	}
	return ins
}

func decodeResult(t *testing.T, rec *httptest.ResponseRecorder) wire.Result {
	t.Helper()
	var buf wire.Buffer
	op, payload, err := wire.ReadFrame(bytes.NewReader(rec.Body.Bytes()), &buf, 0)
	if err != nil || op != wire.OpResult {
		t.Fatalf("result frame: op=%v err=%v body=%q", op, err, rec.Body.Bytes())
	}
	res, err := wire.DecodeResult(payload)
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	res.Bitmap = append([]byte(nil), res.Bitmap...)
	return res
}

// postFrame POSTs one wire frame to a test server and returns the
// response.
func postFrame(t *testing.T, ts *httptest.Server, path string, frame []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+path, wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp
}

// readFrame reads the single wire frame in an HTTP response body.
func readFrame(t *testing.T, resp *http.Response) (wire.Op, []byte) {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("response Content-Type = %q, want %q", ct, wire.ContentType)
	}
	var buf wire.Buffer
	op, payload, err := wire.ReadFrame(resp.Body, &buf, 0)
	if err != nil {
		t.Fatalf("reading response frame: %v", err)
	}
	// Copy out of the local buffer before it goes out of scope.
	return op, append([]byte(nil), payload...)
}

// TestWireHTTPEquivalence drives the same workload over JSON and the
// content-negotiated binary protocol against twin filters and asserts
// identical outcomes: accepted counts, per-key query results, and
// predicate filtering.
func TestWireHTTPEquivalence(t *testing.T) {
	reg := NewRegistry(4)
	mk := func(name string) *Entry {
		e, err := reg.Create(name, shard.Options{
			Shards: 4,
			Params: core.Params{NumAttrs: 2, Capacity: 1 << 12, Seed: 7},
		}, nil)
		if err != nil {
			t.Fatalf("Create %s: %v", name, err)
		}
		return e
	}
	mk("j")
	mk("b")
	ts := httptest.NewServer(NewHandler(reg))
	defer ts.Close()

	const n = 300
	keys := make([]uint64, n)
	attrs := make([][]uint64, n)
	flat := make([]uint64, 0, 2*n)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 99
		attrs[i] = []uint64{uint64(i % 4), uint64(i % 6)}
		flat = append(flat, attrs[i]...)
	}

	var jIns InsertResponse
	doJSON(t, ts, http.MethodPost, "/filters/j/insert", InsertRequest{Keys: keys, Attrs: attrs}, &jIns)
	resp := postFrame(t, ts, "/filters/b/insert", wire.AppendInsert(nil, "", keys, flat, 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary insert status %d", resp.StatusCode)
	}
	op, payload := readFrame(t, resp)
	if op != wire.OpInserted {
		t.Fatalf("binary insert answered opcode %v", op)
	}
	bIns, err := wire.DecodeInserted(payload)
	if err != nil {
		t.Fatalf("DecodeInserted: %v", err)
	}
	if bIns.Accepted != jIns.Accepted || bIns.Rows != n {
		t.Fatalf("binary accepted %d/%d, json accepted %d/%d",
			bIns.Accepted, bIns.Rows, jIns.Accepted, n)
	}

	// Query a mix of present and absent keys with a predicate, both ways.
	probe := append(append([]uint64(nil), keys[:50]...), 1, 2, 3, 4, 5)
	pred := []CondJSON{{Attr: 0, Values: []uint64{1, 2}}}
	var jq QueryResponse
	doJSON(t, ts, http.MethodPost, "/filters/j/query", QueryRequest{Keys: probe, Predicate: pred}, &jq)

	wpred := []wire.Cond{{Attr: 0, Values: []uint64{1, 2}}}
	resp = postFrame(t, ts, "/filters/b/query", wire.AppendQuery(nil, "b", wpred, probe, false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary query status %d", resp.StatusCode)
	}
	op, payload = readFrame(t, resp)
	if op != wire.OpResult {
		t.Fatalf("binary query answered opcode %v", op)
	}
	res, err := wire.DecodeResult(payload)
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	if res.N != len(probe) || len(jq.Results) != len(probe) {
		t.Fatalf("result lengths: binary %d json %d want %d", res.N, len(jq.Results), len(probe))
	}
	for i := range probe {
		if res.Bit(i) != jq.Results[i] {
			t.Fatalf("key %d: binary %v, json %v", i, res.Bit(i), jq.Results[i])
		}
	}
}

func TestWireHTTPErrors(t *testing.T) {
	reg, _ := testRegistry(t)
	ts := httptest.NewServer(NewHandler(reg))
	defer ts.Close()

	expectErr := func(t *testing.T, resp *http.Response, code int, kind wire.ErrKind) {
		t.Helper()
		if resp.StatusCode != code {
			t.Fatalf("status %d, want %d", resp.StatusCode, code)
		}
		op, payload := readFrame(t, resp)
		if op != wire.OpError {
			t.Fatalf("opcode %v, want error", op)
		}
		re, err := wire.DecodeError(payload)
		if err != nil {
			t.Fatalf("DecodeError: %v", err)
		}
		if re.Code != code || re.Kind != kind {
			t.Fatalf("error frame %+v, want code %d kind %v", re, code, kind)
		}
	}

	t.Run("not_found", func(t *testing.T) {
		resp := postFrame(t, ts, "/filters/nope/query", wire.AppendQuery(nil, "", nil, []uint64{1}, false))
		expectErr(t, resp, http.StatusNotFound, wire.KindNotFound)
	})
	t.Run("name_mismatch", func(t *testing.T) {
		resp := postFrame(t, ts, "/filters/movies/query", wire.AppendQuery(nil, "other", nil, []uint64{1}, false))
		expectErr(t, resp, http.StatusBadRequest, wire.KindBadRequest)
	})
	t.Run("opcode_mismatch", func(t *testing.T) {
		resp := postFrame(t, ts, "/filters/movies/insert", wire.AppendQuery(nil, "", nil, []uint64{1}, false))
		expectErr(t, resp, http.StatusBadRequest, wire.KindUnsupported)
	})
	t.Run("garbage", func(t *testing.T) {
		resp := postFrame(t, ts, "/filters/movies/query", []byte("{\"keys\":[1]}"))
		expectErr(t, resp, http.StatusBadRequest, wire.KindBadFrame)
	})
	t.Run("bad_predicate_attr", func(t *testing.T) {
		resp := postFrame(t, ts, "/filters/movies/query",
			wire.AppendQuery(nil, "", []wire.Cond{{Attr: 99, Values: []uint64{1}}}, []uint64{1}, false))
		expectErr(t, resp, http.StatusBadRequest, wire.KindBadRequest)
	})
}

// TestWireHTTPTooLarge mirrors the JSON 413 behavior: a frame whose
// declared payload exceeds -max-body is rejected with 413 and a typed
// too_large error frame before the payload is read.
func TestWireHTTPTooLarge(t *testing.T) {
	reg, _ := testRegistry(t)
	ts := httptest.NewServer(NewHandlerOpts(reg, HandlerOptions{MaxBodyBytes: 256}))
	defer ts.Close()

	keys := make([]uint64, 1024)
	resp := postFrame(t, ts, "/filters/movies/query", wire.AppendQuery(nil, "", nil, keys, false))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	op, payload := readFrame(t, resp)
	if op != wire.OpError {
		t.Fatalf("opcode %v, want error", op)
	}
	re, err := wire.DecodeError(payload)
	if err != nil || re.Kind != wire.KindTooLarge || re.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("error frame %+v err=%v, want too_large 413", re, err)
	}
}

// startWireServer starts s's raw-TCP wire listener on a random port
// and returns the dial address; shutdown runs in cleanup.
func startWireServer(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.ServeWire(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.ShutdownWire(ctx)
		if err := <-done; !errors.Is(err, ErrWireClosed) {
			t.Errorf("ServeWire: %v", err)
		}
	})
	return ln.Addr().String()
}

func TestWireTCPInsertQueryPipelined(t *testing.T) {
	reg, _ := testRegistry(t)
	addr := startWireServer(t, NewServer(reg, HandlerOptions{}))

	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const n = 500
	keys := make([]uint64, n)
	flat := make([]uint64, 0, 2*n)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 5
		flat = append(flat, uint64(i%4), uint64(i%6))
	}
	ins, err := c.Insert("movies", keys, flat, 2)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if ins.Accepted != n || ins.Rows != n || ins.Statuses != nil {
		t.Fatalf("insert outcome %+v", ins)
	}

	// Closed-loop query: every inserted key answers true.
	res, err := c.Query("movies", nil, keys[:64], false)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	for i, hit := range res {
		if !hit {
			t.Fatalf("key %d missing", i)
		}
	}

	// Pipelined: 8 query frames in one flush, responses in order, each
	// batch shifted so the answers differ.
	const depth = 8
	for w := 0; w < depth; w++ {
		c.SendQuery("movies", nil, keys[w*8:w*8+8], false)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for w := 0; w < depth; w++ {
		r, err := c.RecvResult()
		if err != nil {
			t.Fatalf("pipelined recv %d: %v", w, err)
		}
		if r.N != 8 {
			t.Fatalf("pipelined recv %d: %d results", w, r.N)
		}
		for i := 0; i < r.N; i++ {
			if !r.Bit(i) {
				t.Fatalf("pipelined recv %d: key %d missing", w, i)
			}
		}
	}

	// A semantic error (unknown filter) arrives as a typed error frame
	// and leaves the connection usable.
	if _, err := c.Query("nope", nil, keys[:1], false); err == nil {
		t.Fatal("query of unknown filter succeeded")
	} else {
		var re *wire.RemoteError
		if !errors.As(err, &re) || re.Kind != wire.KindNotFound || re.Code != http.StatusNotFound {
			t.Fatalf("unknown filter error %v, want not_found 404", err)
		}
	}
	if _, err := c.Query("movies", nil, keys[:4], false); err != nil {
		t.Fatalf("connection unusable after semantic error: %v", err)
	}
}

// TestWireTCPTooLarge: the per-frame size cap answers a typed too_large
// error frame, then the connection closes (no way to resync past an
// unread payload).
func TestWireTCPTooLarge(t *testing.T) {
	reg, _ := testRegistry(t)
	addr := startWireServer(t, NewServer(reg, HandlerOptions{MaxBodyBytes: 256}))

	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	_, err = c.Query("movies", nil, make([]uint64, 1024), false)
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Kind != wire.KindTooLarge || re.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized frame error %v, want too_large 413", err)
	}
	// The server hung up after the error frame.
	if _, err := c.Query("movies", nil, []uint64{1}, false); err == nil {
		t.Fatal("connection still serving after an oversized frame")
	}
}

// TestWireTCPBadMagic: a peer that is not speaking the protocol gets a
// bad_frame error frame and a connection close, never a hang or a
// panic.
func TestWireTCPBadMagic(t *testing.T) {
	reg, _ := testRegistry(t)
	addr := startWireServer(t, NewServer(reg, HandlerOptions{}))

	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.Write([]byte("POST /filters/movies/query HTTP/1.1\r\n\r\n"))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var buf wire.Buffer
	op, payload, err := wire.ReadFrame(conn, &buf, 0)
	if err != nil || op != wire.OpError {
		t.Fatalf("op=%v err=%v, want an error frame", op, err)
	}
	re, err := wire.DecodeError(payload)
	if err != nil || re.Kind != wire.KindBadFrame {
		t.Fatalf("error frame %+v err=%v, want bad_frame", re, err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection not closed after bad magic: %v", err)
	}
}

// TestWireTCPAdmissionLimiter: wire frames pass through the same
// admission limiter as HTTP requests — with inflight saturated and no
// queue, a frame sheds with a typed overloaded error.
func TestWireTCPAdmissionLimiter(t *testing.T) {
	reg, _ := testRegistry(t)
	s := NewServer(reg, HandlerOptions{Admission: AdmissionOptions{MaxInflight: 1, MaxQueue: 0, QueueTimeout: time.Millisecond}})
	// Hold the only slot so the wire frame must shed.
	s.lim.acquire(nil)
	defer s.lim.release()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.ServeWire(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.ShutdownWire(ctx)
		<-done
	}()

	c, err := wire.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	_, err = c.Query("movies", nil, []uint64{1}, false)
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Kind != wire.KindOverloaded || re.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed error %v, want overloaded 503", err)
	}
}

// TestWireRequestsByProtocolMetric: the per-protocol counters tick for
// JSON-over-HTTP, binary-over-HTTP, and binary-over-TCP — one Server,
// both doors, one exposition.
func TestWireRequestsByProtocolMetric(t *testing.T) {
	om := obs.NewRegistry()
	reg, _ := testRegistry(t)
	s := NewServer(reg, HandlerOptions{Metrics: om})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	addr := startWireServer(t, s)

	var qr QueryResponse
	doJSON(t, ts, http.MethodPost, "/filters/movies/query", QueryRequest{Keys: []uint64{1}}, &qr)
	resp := postFrame(t, ts, "/filters/movies/query", wire.AppendQuery(nil, "", nil, []uint64{1}, false))
	readFrame(t, resp)
	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := c.Query("movies", nil, []uint64{1}, false); err != nil {
		t.Fatalf("tcp query: %v", err)
	}
	c.Close()

	text := scrape(t, ts)
	for _, want := range []string{
		`ccfd_requests_by_protocol_total{protocol="json",transport="http"} 1`,
		`ccfd_requests_by_protocol_total{protocol="binary",transport="http"} 1`,
		`ccfd_requests_by_protocol_total{protocol="binary",transport="tcp"} 1`,
		`ccfd_wire_requests_total{code="2xx"} 1`,
	} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Fatalf("metrics exposition missing %q", want)
		}
	}
}

// wireAllocServer builds the fixture for the zero-alloc guards: a
// volatile filter with rows in it, a server, a request scratch, and a
// 64-key query frame.
func wireAllocServer(t *testing.T, tracer *trace.Tracer) (*Server, *Entry, *reqScratch, []byte) {
	t.Helper()
	reg, e := testRegistry(t)
	insertRows(t, e, 4096)
	s := NewServer(reg, HandlerOptions{Tracer: tracer})
	return s, e, new(reqScratch), allocQueryFrame(64, false)
}

// allocInsertFrame is an insert frame of the first n rows insertRows
// inserts, with their attributes.
func allocInsertFrame(n int) []byte {
	keys := presentKeys(n)
	flat := make([]uint64, 0, 2*n)
	for i := range keys {
		flat = append(flat, uint64(i%4), uint64(i%6))
	}
	return wire.AppendInsert(nil, "movies", keys, flat, 2)
}

// presentKeys returns the first n keys insertRows inserts.
func presentKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 5
	}
	return keys
}

// allocQueryFrame is a query frame probing n present keys under a
// one-condition predicate, with the via_view hint set as given.
func allocQueryFrame(n int, viaView bool) []byte {
	return wire.AppendQuery(nil, "movies", []wire.Cond{{Attr: 0, Values: []uint64{1, 2}}}, presentKeys(n), viaView)
}

// runsQueryFrame is allocQueryFrame with its n keys in runs of 1 to 4
// equal keys, as a fact table's join column holds them.
func runsQueryFrame(n int) []byte {
	keys := make([]uint64, 0, n)
	for i, k := range presentKeys(n) {
		for j := 0; j <= i%4 && len(keys) < n; j++ {
			keys = append(keys, k)
		}
	}
	return wire.AppendQuery(nil, "movies", []wire.Cond{{Attr: 0, Values: []uint64{1, 2}}}, keys, false)
}

// roundTrip runs one decode→core→encode cycle exactly as the TCP loop
// does, minus the socket: the binary codec shell decodes the frame and
// calls the request core, which probes or inserts, and the shell encodes
// the response. The reader is reused so the harness itself stays
// allocation-free.
var roundTripReader bytes.Reader

func roundTrip(t *testing.T, s *Server, ws *reqScratch, frame []byte, tr *trace.Req) {
	roundTripReader.Reset(frame)
	op, payload, err := wire.ReadFrame(&roundTripReader, &ws.buf, 0)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	ws.out = ws.out[:0]
	if f := s.process(nil, op, payload, ws, tr, "", 0); f.failed() {
		t.Fatalf("process: status %d (%s)", f.code, f.msg)
	}
}

// TestWireZeroAllocRoundTrip is the acceptance guard: the wire
// decode→request core→encode round trip runs at 0 allocs/op
// steady-state, with tracing sampled off and sampled on. query1024 is
// the batch size of the pushdown workload on the 4-shard filter built
// with default options; query1024viaview sets the ignored via_view hint,
// which takes the same path. insert1024 is the insert batch size of both
// benchmark workloads on that filter.
func TestWireZeroAllocRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	cases := []struct {
		name   string
		tracer *trace.Tracer
	}{
		{"untraced", nil},
		{"sampled", trace.New(trace.Options{SampleEvery: 1, Recorder: trace.NewRecorder(16, 16)})},
	}
	for _, tc := range cases {
		for _, q := range []struct {
			name  string
			frame []byte
		}{
			{"query", allocQueryFrame(64, false)},
			{"query1024", allocQueryFrame(1024, false)},
			{"query1024runs", runsQueryFrame(1024)},
			{"query1024viaview", allocQueryFrame(1024, true)},
		} {
			t.Run(tc.name+"/"+q.name, func(t *testing.T) {
				s, _, ws, _ := wireAllocServer(t, tc.tracer)
				run := func() {
					tr := tc.tracer.StartRequest("")
					roundTrip(t, s, ws, q.frame, tr)
					tc.tracer.Finish(tr, http.StatusOK)
				}
				run() // warm scratch and pools
				if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
					t.Fatalf("%s round trip allocates %.1f/op, want 0", q.name, allocs)
				}
			})
		}
		for _, in := range []struct {
			name  string
			frame []byte
		}{
			{"insert", allocInsertFrame(64)},
			{"insert1024", allocInsertFrame(1024)},
		} {
			t.Run(tc.name+"/"+in.name, func(t *testing.T) {
				s, _, ws, _ := wireAllocServer(t, tc.tracer)
				run := func() {
					tr := tc.tracer.StartRequest("")
					roundTrip(t, s, ws, in.frame, tr)
					tc.tracer.Finish(tr, http.StatusOK)
				}
				run()
				if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
					t.Fatalf("%s round trip allocates %.1f/op, want 0", in.name, allocs)
				}
			})
		}
	}
}

// hugeInListFrame is a query frame with one key and a 2^20-value in-list
// (3.1 MB): serving it grows a scratch's frame buffer and decode storage
// far past maxPooledBytes.
func hugeInListFrame() []byte {
	vals := make([]uint64, 1<<20)
	for i := range vals {
		vals[i] = uint64(i)
	}
	return wire.AppendQuery(nil, "movies", []wire.Cond{{Attr: 0, Values: vals}}, []uint64{5}, false)
}

// liveHeap returns the bytes of live heap objects. Two collections empty
// every sync.Pool, so what stays live is held by something else, such as
// a connection's own scratch.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestOversizedScratchNotKept pins the scratch size rule on both
// transports: after one huge frame the HTTP pool does not take the
// scratch back, and a raw-TCP connection lets go of the buffers it grew,
// so later small requests do not keep megabytes alive.
func TestOversizedScratchNotKept(t *testing.T) {
	t.Run("http_pool", func(t *testing.T) {
		s, _, sc, _ := wireAllocServer(t, nil)
		roundTrip(t, s, sc, hugeInListFrame(), nil)
		putScratch(sc)
		if getScratch() == sc {
			t.Fatal("a scratch grown by a 3.1 MB frame went back to the pool")
		}
	})
	t.Run("tcp_conn", func(t *testing.T) {
		s, _, _, qframe := wireAllocServer(t, nil)
		conn, err := net.Dial("tcp", startWireServer(t, s))
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		ask := func(frame []byte) {
			if _, err := conn.Write(frame); err != nil {
				t.Fatalf("write: %v", err)
			}
			var buf wire.Buffer
			if op, _, err := wire.ReadFrame(conn, &buf, 0); err != nil || op != wire.OpResult {
				t.Fatalf("response op %v, err %v; want a result frame", op, err)
			}
		}
		ask(qframe)
		before := liveHeap()
		ask(hugeInListFrame())
		ask(qframe)
		if grown := liveHeap() - before; grown > 4<<20 {
			t.Fatalf("the connection keeps %d more live bytes after one 3.1 MB frame, want at most 4 MiB", grown)
		}
	})
}

// FuzzWireDecode is the differential fuzz between the binary decoder
// and the JSON handler: structured inputs must produce identical filter
// state and query results through both protocols, and arbitrary bytes
// must error cleanly — no panics, no over-reads.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("CCFW garbage"))
	f.Add(wire.AppendQuery(nil, "f", []wire.Cond{{Attr: 0, Values: []uint64{1}}}, []uint64{1, 2, 3}, false))
	f.Add(wire.AppendInsert(nil, "f", []uint64{7, 8}, []uint64{1, 2, 3, 4}, 2))
	f.Add(bytes.Repeat([]byte{0x80}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Part 1 — robustness: arbitrary bytes through the frame reader
		// and every payload decoder must error cleanly, never panic.
		var buf wire.Buffer
		var sc wire.Scratch
		if op, payload, err := wire.ReadFrame(bytes.NewReader(data), &buf, 1<<20); err == nil {
			_ = op
			wire.DecodeQuery(&sc, payload)
			wire.DecodeInsert(&sc, payload)
			wire.DecodeResult(payload)
			wire.DecodeInserted(payload)
			wire.DecodeError(payload)
		}
		if len(data) > wire.HeaderSize {
			p := data[wire.HeaderSize:]
			wire.DecodeQuery(&sc, p)
			wire.DecodeInsert(&sc, p)
			wire.DecodeResult(p)
			wire.DecodeInserted(p)
			wire.DecodeError(p)
		}

		// Part 2 — differential: derive a structured workload from the
		// fuzz bytes and drive it through the JSON and binary handlers
		// against twin filters; outcomes must match exactly.
		if len(data) < 8 {
			return
		}
		nkeys := 1 + int(data[0])%48
		keys := make([]uint64, nkeys)
		attrs := make([][]uint64, nkeys)
		flat := make([]uint64, 0, 2*nkeys)
		for i := range keys {
			base := binary.LittleEndian.Uint64(data[(8*i)%(len(data)-7):][:8])
			keys[i] = base ^ uint64(i)*2654435761
			attrs[i] = []uint64{keys[i] % 4, keys[i] % 6}
			flat = append(flat, attrs[i]...)
		}
		reg := NewRegistry(2)
		for _, name := range []string{"j", "b"} {
			if _, err := reg.Create(name, shard.Options{
				Shards: 2,
				Params: core.Params{NumAttrs: 2, Capacity: 256, Seed: 11},
			}, nil); err != nil {
				t.Fatalf("Create %s: %v", name, err)
			}
		}
		h := NewHandler(reg)
		do := func(path, ct string, body []byte) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			req.Header.Set("Content-Type", ct)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}

		jbody, _ := jsonBody(InsertRequest{Keys: keys, Attrs: attrs})
		jrec := do("/filters/j/insert", "application/json", jbody)
		brec := do("/filters/b/insert", wire.ContentType, wire.AppendInsert(nil, "", keys, flat, 2))
		if jrec.Code != http.StatusOK || brec.Code != http.StatusOK {
			t.Fatalf("insert status: json %d binary %d", jrec.Code, brec.Code)
		}
		var jIns InsertResponse
		decodeBody(t, jrec, &jIns)
		bIns := decodeInserted(t, brec)
		if jIns.Accepted != bIns.Accepted {
			t.Fatalf("accepted: json %d binary %d", jIns.Accepted, bIns.Accepted)
		}
		for i := range keys {
			js := shard.RowInserted.String()
			if jIns.Statuses != nil {
				js = jIns.Statuses[i]
			}
			bs := shard.RowInserted
			if bIns.Statuses != nil {
				bs = shard.RowStatus(bIns.Statuses[i])
			}
			if js != bs.String() {
				t.Fatalf("row %d status: json %q binary %q", i, js, bs)
			}
		}

		// Query present keys plus derived absent ones, with a predicate
		// when the input asks for one.
		probe := append(append([]uint64(nil), keys...), keys[0]^0xdead, keys[0]^0xbeef)
		var jpred []CondJSON
		var bpred []wire.Cond
		if data[1]%2 == 0 {
			v := uint64(data[2] % 4)
			jpred = []CondJSON{{Attr: 0, Values: []uint64{v}}}
			bpred = []wire.Cond{{Attr: 0, Values: []uint64{v}}}
		}
		jbody, _ = jsonBody(QueryRequest{Keys: probe, Predicate: jpred})
		jrec = do("/filters/j/query", "application/json", jbody)
		brec = do("/filters/b/query", wire.ContentType, wire.AppendQuery(nil, "b", bpred, probe, false))
		if jrec.Code != http.StatusOK || brec.Code != http.StatusOK {
			t.Fatalf("query status: json %d binary %d", jrec.Code, brec.Code)
		}
		var jq QueryResponse
		decodeBody(t, jrec, &jq)
		res := decodeResult(t, brec)
		if res.N != len(probe) || len(jq.Results) != len(probe) {
			t.Fatalf("result lengths: binary %d json %d", res.N, len(jq.Results))
		}
		for i := range probe {
			if res.Bit(i) != jq.Results[i] {
				t.Fatalf("probe %d: binary %v json %v", i, res.Bit(i), jq.Results[i])
			}
		}
	})
}
