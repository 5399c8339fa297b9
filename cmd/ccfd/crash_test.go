package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ccf/internal/server"
	"ccf/internal/store"
)

func putFilter(t *testing.T, url, name, body string) {
	t.Helper()
	req, err := http.NewRequest("PUT", url+"/filters/"+name, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT %s: %v", name, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT %s: %s", name, resp.Status)
	}
}

// TestRestartRoundTrip is the HTTP-level durability test: create, fill
// and query a filter; shut the daemon down gracefully; boot a second
// daemon on the same -data-dir and require identical answers — then keep
// writing to prove the recovered store accepts new traffic.
func TestRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := serveConfig{dataDir: dir, fsync: store.FsyncInterval, flushEvery: time.Millisecond}

	url, shutdown := startDaemon(t, cfg)
	putFilter(t, url, "jobs", `{"variant":"chained","shards":4,"capacity":65536,"num_attrs":2}`)
	keys := make([]uint64, 500)
	attrs := make([][]uint64, 500)
	for i := range keys {
		keys[i] = uint64(i)*6364136223846793005 + 17
		attrs[i] = []uint64{uint64(i % 4), uint64(i % 7)}
	}
	var ins server.InsertResponse
	post(t, url+"/filters/jobs/insert", server.InsertRequest{Keys: keys, Attrs: attrs}, &ins)
	if ins.Accepted != len(keys) {
		t.Fatalf("accepted %d of %d", ins.Accepted, len(keys))
	}
	query := server.QueryRequest{
		Keys:      append(append([]uint64{}, keys...), 999999999, 123456789),
		Predicate: []server.CondJSON{{Attr: 0, Values: []uint64{0, 1}}},
	}
	var before server.QueryResponse
	post(t, url+"/filters/jobs/query", query, &before)
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	url2, shutdown2 := startDaemon(t, cfg)
	var after server.QueryResponse
	post(t, url2+"/filters/jobs/query", query, &after)
	if len(after.Results) != len(before.Results) {
		t.Fatalf("result lengths differ: %d vs %d", len(after.Results), len(before.Results))
	}
	for i := range before.Results {
		if before.Results[i] != after.Results[i] {
			t.Fatalf("key %d: before restart %v, after %v", query.Keys[i], before.Results[i], after.Results[i])
		}
	}
	// The recovered filter keeps absorbing writes.
	post(t, url2+"/filters/jobs/insert", server.InsertRequest{
		Keys: []uint64{42}, Attrs: [][]uint64{{1, 1}},
	}, &ins)
	var q server.QueryResponse
	post(t, url2+"/filters/jobs/query", server.QueryRequest{Keys: []uint64{42}}, &q)
	if len(q.Results) != 1 || !q.Results[0] {
		t.Fatalf("post-restart insert lost: %+v", q)
	}
	if err := shutdown2(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

const (
	crashHelperEnv = "CCFD_CRASH_HELPER_DIR"
	crashFaultsEnv = "CCFD_CRASH_HELPER_FAULTS"
)

// TestCrashHelperProcess is not a test: it is the child half of the
// SIGKILL crash tests, re-executed from the test binary. It serves a
// durable daemon with -fsync always (and -auto-grow, which is inert for
// filters that never outgrow their sizing) until the parent kills it.
func TestCrashHelperProcess(t *testing.T) {
	dir := os.Getenv(crashHelperEnv)
	if dir == "" {
		t.Skip("helper for TestCrashRecoverySIGKILL")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	fmt.Printf("CCFD_ADDR=%s\n", ln.Addr())
	os.Stdout.Sync()
	cfg := serveConfig{
		dataDir: dir, fsync: store.FsyncAlways,
		flushEvery: time.Millisecond, autoGrow: true, quiet: true,
	}
	if sched := os.Getenv(crashFaultsEnv); sched != "" {
		// Degraded-mode crash test: inject storage faults, and push the
		// re-arm probe past the test's lifetime so its state stays stable.
		cfg.faultSchedule = sched
		cfg.rearmMin, cfg.rearmMax = time.Minute, time.Minute
	}
	serveUntilDone(context.Background(), ln, cfg)
}

// startCrashHelper launches the helper daemon on dir and returns its
// base URL plus the running command (the caller kills it) once /readyz
// answers 200, as startDaemon does: filter routes answer 503 until
// store recovery has attached the catalog, so the tests' first PUT must
// wait for readiness, not liveness. extraEnv entries ("KEY=VALUE") are
// passed through to the child.
func startCrashHelper(t *testing.T, dir string, extraEnv ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(), crashHelperEnv+"="+dir)
	cmd.Env = append(cmd.Env, extraEnv...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting helper: %v", err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "CCFD_ADDR="); ok {
				addrc <- addr
				return
			}
		}
	}()
	var url string
	select {
	case addr := <-addrc:
		url = "http://" + addr
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("helper daemon never reported its address")
	}
	for deadline := time.Now().Add(15 * time.Second); ; {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return url, cmd
			}
			err = fmt.Errorf("readyz: %d", code)
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("helper daemon never became ready: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrashRecoveryMidGrowSIGKILL is the elastic-capacity crash test: a
// deliberately undersized auto-grow filter is hammered until its ladder
// has opened levels, the daemon is SIGKILLed mid-load, and recovery must
// rebuild the multi-level ladder from the WAL with every acked key
// present — growth must not weaken the acked-means-durable contract.
func TestCrashRecoveryMidGrowSIGKILL(t *testing.T) {
	dir := t.TempDir()
	url, cmd := startCrashHelper(t, dir)
	defer cmd.Process.Kill()

	// Sized for 1024 rows; the writers push far past that. Folding is off:
	// a fold that completes before the kill collapses the ladder back to
	// one level, and the recovered structure could no longer show the
	// mid-grow state this test checks.
	putFilter(t, url, "elastic",
		`{"variant":"chained","shards":2,"capacity":1024,"num_attrs":2,"auto_grow":{"max_levels":6,"fold_at_levels":-1}}`)

	var mu sync.Mutex
	var acked []uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wtr := 0; wtr < 2; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				keys := make([]uint64, 64)
				attrs := make([][]uint64, 64)
				for i := range keys {
					keys[i] = uint64(wtr*10_000_000+it*64+i)*2654435761 + 13
					attrs[i] = []uint64{uint64(i % 4), uint64(i % 3)}
				}
				body, _ := json.Marshal(server.InsertRequest{Keys: keys, Attrs: attrs})
				resp, err := http.Post(url+"/filters/elastic/insert", "application/json", bytes.NewReader(body))
				if err != nil {
					return // daemon died mid-request: batch not acked
				}
				var ins server.InsertResponse
				derr := json.NewDecoder(resp.Body).Decode(&ins)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || derr != nil || ins.Accepted != len(keys) {
					return // growth means no row may fail; a non-ack ends this writer
				}
				mu.Lock()
				acked = append(acked, keys...)
				mu.Unlock()
			}
		}(wtr)
	}

	// Kill only once the ladder has visibly grown (stats read one shard
	// at a time under its read lock, so polling barely holds up the
	// writers).
	deadline := time.Now().Add(20 * time.Second)
	grown := false
	for time.Now().Before(deadline) && !grown {
		resp, err := http.Get(url + "/filters/elastic/stats")
		if err == nil {
			var fs server.FilterStats
			if json.NewDecoder(resp.Body).Decode(&fs) == nil && fs.MaxLevels >= 2 {
				grown = true
			}
			resp.Body.Close()
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !grown {
		t.Fatal("ladder never grew under load")
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	close(stop)
	wg.Wait()
	cmd.Wait()
	mu.Lock()
	ackedKeys := append([]uint64(nil), acked...)
	mu.Unlock()
	if len(ackedKeys) == 0 {
		t.Fatal("no batches were acked before the kill")
	}

	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st.Close()
	fl := st.Get("elastic")
	if fl == nil {
		t.Fatal("filter not recovered")
	}
	stats := fl.Live().Stats()
	if stats.MaxLevels < 2 {
		t.Fatalf("recovered ladder has %d level(s), want the mid-grow structure back", stats.MaxLevels)
	}
	sf := fl.Live()
	for _, k := range ackedKeys {
		if !sf.QueryKey(k) {
			t.Fatalf("acked key %d lost in mid-grow crash (%d acked, levels %d)",
				k, len(ackedKeys), stats.MaxLevels)
		}
	}
	t.Logf("recovered %d acked keys, ladder at %d levels: %+v",
		len(ackedKeys), stats.MaxLevels, st.RecoveryStats())
}

// TestCrashRecoverySIGKILL is the acceptance test for crash safety: a
// real ccfd child process under concurrent write load is SIGKILLed, its
// WAL tail is additionally garbled with trailing garbage, and recovery
// must still answer true for every insert the daemon acked (fsync=always
// means acked implies durable).
func TestCrashRecoverySIGKILL(t *testing.T) {
	dir := t.TempDir()
	url, cmd := startCrashHelper(t, dir)
	defer cmd.Process.Kill()

	putFilter(t, url, "jobs", `{"variant":"chained","shards":2,"capacity":131072,"num_attrs":2}`)

	// Hammer inserts from two writers; kill mid-stream; keep only keys
	// whose batch was acked with a 2xx before the kill.
	var mu sync.Mutex
	var acked []uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wtr := 0; wtr < 2; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				keys := make([]uint64, 32)
				attrs := make([][]uint64, 32)
				for i := range keys {
					keys[i] = uint64(wtr*1_000_000+it*32+i)*2654435761 + 7
					attrs[i] = []uint64{uint64(i % 4), uint64(i % 3)}
				}
				body, _ := json.Marshal(server.InsertRequest{Keys: keys, Attrs: attrs})
				resp, err := http.Post(url+"/filters/jobs/insert", "application/json", bytes.NewReader(body))
				if err != nil {
					return // daemon died mid-request: batch not acked
				}
				var ins server.InsertResponse
				derr := json.NewDecoder(resp.Body).Decode(&ins)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || derr != nil || ins.Accepted != len(keys) {
					return
				}
				mu.Lock()
				acked = append(acked, keys...)
				mu.Unlock()
			}
		}(wtr)
	}

	// Let writes accumulate, then SIGKILL mid-load.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 2000 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	close(stop)
	wg.Wait()
	cmd.Wait()
	mu.Lock()
	ackedKeys := append([]uint64(nil), acked...)
	mu.Unlock()
	if len(ackedKeys) == 0 {
		t.Fatal("no batches were acked before the kill")
	}

	// Garble the WAL tail on top of the crash: recovery must truncate it.
	fdir := filepath.Join(dir, "filters", "f-jobs")
	entries, err := os.ReadDir(fdir)
	if err != nil {
		t.Fatalf("filter dir: %v", err)
	}
	var newestWAL string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && (newestWAL == "" || e.Name() > newestWAL) {
			newestWAL = e.Name()
		}
	}
	if newestWAL == "" {
		t.Fatal("no WAL file on disk after kill")
	}
	wf, err := os.OpenFile(filepath.Join(fdir, newestWAL), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	wf.Write([]byte{0xde, 0xad, 0xbe})
	wf.Close()

	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st.Close()
	stats := st.RecoveryStats()
	if stats.Filters != 1 || stats.TornTails == 0 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	fl := st.Get("jobs")
	if fl == nil {
		t.Fatal("filter not recovered")
	}
	sf := fl.Live()
	for _, k := range ackedKeys {
		if !sf.QueryKey(k) {
			t.Fatalf("acked key %d lost in crash (stats %+v, %d acked)", k, stats, len(ackedKeys))
		}
	}
	t.Logf("recovered %d acked keys after SIGKILL: %+v", len(ackedKeys), stats)
}

// TestCrashWhileDegradedSIGKILL is the degraded-mode half of the crash
// acceptance: a daemon whose disk "fills up" mid-load (injected ENOSPC on
// every fsync from the fifth on) poisons its WAL and flips the filter
// read-only — writes answer 503 with Retry-After while queries and
// /readyz keep serving — and a SIGKILL in that state must not lose any
// write acked before the failure. Recovery on a healthy filesystem comes
// back un-degraded and writable with every acked key present.
func TestCrashWhileDegradedSIGKILL(t *testing.T) {
	dir := t.TempDir()
	// fsync #1 is the WAL header, #2 the create record; insert batches
	// sync from #3, so two batches land before the disk "fails" for good.
	url, cmd := startCrashHelper(t, dir, crashFaultsEnv+"=fsync:5-:enospc")
	defer cmd.Process.Kill()

	putFilter(t, url, "deg", `{"variant":"chained","shards":2,"capacity":65536,"num_attrs":1}`)

	var acked []uint64
	var degradedStatus int
	var retryAfter string
	for it := 0; it < 100; it++ {
		keys := make([]uint64, 32)
		attrs := make([][]uint64, 32)
		for i := range keys {
			keys[i] = uint64(it*32+i)*2654435761 + 11
			attrs[i] = []uint64{uint64(i % 4)}
		}
		body, _ := json.Marshal(server.InsertRequest{Keys: keys, Attrs: attrs})
		resp, err := http.Post(url+"/filters/deg/insert", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("insert %d: %v", it, err)
		}
		if resp.StatusCode != http.StatusOK {
			degradedStatus = resp.StatusCode
			retryAfter = resp.Header.Get("Retry-After")
			resp.Body.Close()
			break
		}
		var ins server.InsertResponse
		derr := json.NewDecoder(resp.Body).Decode(&ins)
		resp.Body.Close()
		if derr != nil || ins.Accepted != len(keys) {
			t.Fatalf("insert %d: accepted %d, decode err %v", it, ins.Accepted, derr)
		}
		acked = append(acked, keys...)
	}
	if degradedStatus == 0 {
		t.Fatal("injected fsync failure never surfaced")
	}
	if degradedStatus != http.StatusServiceUnavailable || retryAfter == "" {
		t.Fatalf("degrading insert: status %d, Retry-After %q; want 503 with a hint",
			degradedStatus, retryAfter)
	}
	if len(acked) == 0 {
		t.Fatal("no batch was acked before the injected failure")
	}

	// Reads keep serving from memory while the filter is read-only.
	var q server.QueryResponse
	post(t, url+"/filters/deg/query", server.QueryRequest{Keys: acked}, &q)
	for i, hit := range q.Results {
		if !hit {
			t.Fatalf("degraded read lost acked key %d", acked[i])
		}
	}

	// Further writes are rejected fast: a poisoned WAL is never retried.
	resp, err := http.Post(url+"/filters/deg/insert", "application/json",
		strings.NewReader(`{"keys":[424242],"attrs":[[0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write while degraded: status %d, want 503", resp.StatusCode)
	}

	// /readyz stays ready (reads serve) and names the degraded filter.
	rz, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rzBody struct {
		Degraded []store.DegradedFilter `json:"degraded_filters"`
	}
	derr := json.NewDecoder(rz.Body).Decode(&rzBody)
	rz.Body.Close()
	if rz.StatusCode != http.StatusOK || derr != nil {
		t.Fatalf("/readyz while degraded: status %d, decode err %v", rz.StatusCode, derr)
	}
	if len(rzBody.Degraded) != 1 || rzBody.Degraded[0].Name != "deg" || rzBody.Degraded[0].Reason != "enospc" {
		t.Fatalf("/readyz degraded_filters = %+v, want one enospc entry for %q", rzBody.Degraded, "deg")
	}

	// SIGKILL in degraded mode, then recover on a healthy filesystem.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	cmd.Wait()

	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st.Close()
	if n := st.DegradedCount(); n != 0 {
		t.Fatalf("recovered store still degraded (%d filters)", n)
	}
	fl := st.Get("deg")
	if fl == nil {
		t.Fatal("filter not recovered")
	}
	sf := fl.Live()
	for _, k := range acked {
		if !sf.QueryKey(k) {
			t.Fatalf("acked key %d lost across degraded SIGKILL (%d acked)", k, len(acked))
		}
	}
	// Write availability is back: recovery opened a fresh WAL, not the
	// poisoned one.
	if err := fl.Insert(987654321, []uint64{1}); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	if !fl.Live().QueryKey(987654321) {
		t.Fatal("post-recovery insert not visible")
	}
	t.Logf("recovered %d acked keys after degraded-mode SIGKILL: %+v",
		len(acked), st.RecoveryStats())
}
