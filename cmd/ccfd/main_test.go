package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ccf/internal/obs"
	"ccf/internal/server"
)

// startDaemon runs the real serve loop on an ephemeral port and returns
// its base URL plus a shutdown function that waits for graceful exit.
func startDaemon(t *testing.T, cfg serveConfig) (string, func() error) {
	t.Helper()
	cfg.quiet = true
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- serveUntilDone(ctx, ln, cfg) }()
	url := "http://" + ln.Addr().String()
	// Wait for readiness, not liveness: /readyz flips to 200 only after
	// store recovery has attached the filter catalog, so tests that query
	// right after a restart don't race the replay.
	for i := 0; ; i++ {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				break
			}
			err = fmt.Errorf("readyz: %d", code)
		}
		if i > 100 {
			t.Fatalf("daemon never became ready: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return url, func() error {
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("shutdown timed out")
		}
	}
}

func post(t *testing.T, url string, body any, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: unmarshal %q: %v", url, data, err)
		}
	}
}

// TestDaemonServesConcurrentBatches boots ccfd's serve loop and drives
// concurrent batched inserts and queries over real HTTP, then shuts down
// gracefully — the daemon-level -race exercise.
func TestDaemonServesConcurrentBatches(t *testing.T) {
	url, shutdown := startDaemon(t, serveConfig{})

	req, _ := http.NewRequest("PUT", url+"/filters/jobs", bytes.NewReader([]byte(
		`{"variant":"chained","shards":4,"capacity":65536,"num_attrs":2}`)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create filter: %v %v", err, resp.Status)
	}
	resp.Body.Close()

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				keys := make([]uint64, 64)
				attrs := make([][]uint64, 64)
				for i := range keys {
					keys[i] = uint64(g*10000+it*64+i)*7919 + 3
					attrs[i] = []uint64{uint64(i % 4), uint64(i % 3)}
				}
				var ins server.InsertResponse
				post(t, url+"/filters/jobs/insert", server.InsertRequest{Keys: keys, Attrs: attrs}, &ins)
				if ins.Accepted != 64 {
					t.Errorf("writer %d: accepted %d", g, ins.Accepted)
					return
				}
				var q server.QueryResponse
				post(t, url+"/filters/jobs/query", server.QueryRequest{
					Keys:      keys,
					Predicate: []server.CondJSON{{Attr: 0, Values: []uint64{0, 1, 2, 3}}},
				}, &q)
				for i, ok := range q.Results {
					if !ok {
						t.Errorf("writer %d: lost key %d", g, keys[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	var st server.StatsResponse
	resp, err = http.Get(url + "/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	resp.Body.Close()
	if got := st.Filters["jobs"].Rows; got != 3*5*64 {
		t.Fatalf("rows = %d, want %d", got, 3*5*64)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestShutdownClosesSpareConnections pins the drain against a client
// holding a connection it has dialed but not yet sent a request on, as
// http.Transport does when an idle connection frees up mid-dial: the
// graceful stop must close it and finish well inside its grace period.
func TestShutdownClosesSpareConnections(t *testing.T) {
	url, shutdown := startDaemon(t, serveConfig{})
	c, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	time.Sleep(50 * time.Millisecond) // let the server accept it
	start := time.Now()
	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shutdown took %v with a spare connection open", d)
	}
	c.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("spare connection still open after shutdown")
	}
}

// TestPprofEndpoint covers the -pprof-addr satellite: the profiling
// handlers come up on their own listener and answer, and closing the
// listener tears them down.
func TestPprofEndpoint(t *testing.T) {
	ln, addr, err := startPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d", resp.StatusCode)
	}
	if b, _ := io.ReadAll(resp.Body); len(b) == 0 {
		t.Fatal("pprof cmdline: empty body")
	}
}

// lockedBuf is a goroutine-safe log sink for daemon tests.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonMetricsAndReadyz is the daemon-level observability smoke:
// boot durable, verify /readyz flips ready with the recovery outcome,
// drive traffic, and check /metrics (on the main listener AND the
// private -metrics-addr listener) serves valid exposition text spanning
// every layer. Shutdown must land the final store-closed summary in the
// structured log after the WAL counters are final.
func TestDaemonMetricsAndReadyz(t *testing.T) {
	// Reserve a port for the private metrics listener.
	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	metricsAddr := mln.Addr().String()
	mln.Close()

	logs := &lockedBuf{}
	url, shutdown := startDaemon(t, serveConfig{
		dataDir:     t.TempDir(),
		metricsAddr: metricsAddr,
		logFormat:   "json",
		logW:        logs,
	})

	// Readiness reflects completed recovery.
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d (%s)", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"ready":true`)) {
		t.Fatalf("/readyz body = %s", body)
	}

	req, _ := http.NewRequest("PUT", url+"/filters/obs", bytes.NewReader([]byte(
		`{"variant":"chained","shards":2,"capacity":4096,"num_attrs":2}`)))
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create filter: %v %v", err, resp.Status)
	} else {
		resp.Body.Close()
	}
	var ins server.InsertResponse
	post(t, url+"/filters/obs/insert", server.InsertRequest{
		Keys: []uint64{1, 2, 3}, Attrs: [][]uint64{{0, 1}, {1, 0}, {2, 1}},
	}, &ins)
	if ins.Accepted != 3 {
		t.Fatalf("accepted %d", ins.Accepted)
	}

	for _, base := range []string{url, "http://" + metricsAddr} {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("GET %s/metrics: %v", base, err)
		}
		text, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s/metrics = %d", base, resp.StatusCode)
		}
		if err := obs.ValidateExposition(string(text)); err != nil {
			t.Fatalf("%s/metrics invalid: %v", base, err)
		}
		for _, want := range []string{
			"ccfd_http_requests_total",
			`ccfd_filter_rows{filter="obs"} 3`,
			"ccfd_wal_append_frames_total",
			"ccfd_recovery_filters 0",
		} {
			if !strings.Contains(string(text), want) {
				t.Errorf("%s/metrics missing %q", base, want)
			}
		}
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// The final summary logs after the store is flushed and closed, with
	// the WAL counters covering everything that reached disk.
	out := logs.String()
	closedAt := strings.Index(out, `"msg":"store closed"`)
	downAt := strings.Index(out, `"msg":"shut down"`)
	if closedAt < 0 || downAt < 0 || closedAt > downAt {
		t.Fatalf("shutdown log order wrong (closed@%d, down@%d):\n%s", closedAt, downAt, out)
	}
	if !strings.Contains(out[closedAt:], `"wal_append_bytes"`) {
		t.Errorf("store-closed summary missing WAL counters:\n%s", out)
	}
}
