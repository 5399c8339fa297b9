package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"ccf/internal/core"
	"ccf/internal/shard"
	"ccf/internal/store"
	"ccf/internal/wire"
)

func testRegistry(t *testing.T) (*Registry, *Entry) {
	t.Helper()
	reg := NewRegistry(4)
	e, err := reg.Create("movies", shard.Options{
		Shards: 4,
		Params: core.Params{NumAttrs: 2, Capacity: 1 << 14, Seed: 3},
	}, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return reg, e
}

func insertRows(t *testing.T, e *Entry, n int) ([]uint64, [][]uint64) {
	t.Helper()
	keys := make([]uint64, n)
	attrs := make([][]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 5
		attrs[i] = []uint64{uint64(i % 4), uint64(i % 6)}
	}
	for i, err := range e.Filter().InsertBatch(keys, attrs) {
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return keys, attrs
}

// TestViaViewHintIgnored is the contract for old clients' via_view hint:
// the same predicate query, sent with and without it over JSON/HTTP,
// binary/HTTP and binary/TCP, answers bit for bit what the filter's
// batch probe answers. The JSON response carries no view_cache_hit key,
// every result frame has flags 0, and /stats's view_cache block reads 0.
// The probe holds runs of 1 to 4 equal keys, alternately present and
// absent.
func TestViaViewHintIgnored(t *testing.T) {
	reg, e := testRegistry(t)
	keys, _ := insertRows(t, e, 2000)
	ts, addr := bothDoors(t, NewServer(reg, HandlerOptions{}))

	var probe []uint64
	for i := 0; i < 300; i++ {
		k := keys[i/2*7%len(keys)]
		if i%2 == 1 {
			k = uint64(i)<<40 | 1 // never inserted
		}
		for j := 0; j <= i%4; j++ {
			probe = append(probe, k)
		}
	}
	pred := core.And(core.Eq(0, 1), core.In(1, 2, 3))
	want := e.Filter().QueryBatch(probe, pred)
	if !slices.Contains(want, true) || !slices.Contains(want, false) {
		t.Fatal("the probe's answers are all alike; pick another predicate")
	}
	jpred := []CondJSON{{Attr: 0, Values: []uint64{1}}, {Attr: 1, Values: []uint64{2, 3}}}
	wpred := []wire.Cond{{Attr: 0, Values: []uint64{1}}, {Attr: 1, Values: []uint64{2, 3}}}

	checkFrame := func(leg string, op wire.Op, payload []byte) {
		t.Helper()
		if op != wire.OpResult {
			t.Fatalf("%s: answered opcode %v", leg, op)
		}
		if payload[0] != 0 {
			t.Fatalf("%s: result flags %#x, want 0", leg, payload[0])
		}
		res, err := wire.DecodeResult(payload)
		if err != nil {
			t.Fatalf("%s: DecodeResult: %v", leg, err)
		}
		if got := res.Expand(nil); !slices.Equal(got, want) {
			t.Fatalf("%s: results differ from the batch probe's", leg)
		}
	}
	for _, viaView := range []bool{false, true} {
		resp := rawJSON(t, ts, "POST", "/filters/movies/query",
			QueryRequest{Keys: probe, Predicate: jpred, ViaView: viaView})
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("json via_view=%v: %d %s", viaView, resp.StatusCode, body)
		}
		if _, ok := fields["view_cache_hit"]; ok {
			t.Fatalf("json via_view=%v: response carries view_cache_hit: %s", viaView, body)
		}
		var got []bool
		if err := json.Unmarshal(fields["results"], &got); err != nil || !slices.Equal(got, want) {
			t.Fatalf("json via_view=%v: results differ from the batch probe's (%v)", viaView, err)
		}

		frame := wire.AppendQuery(nil, "movies", wpred, probe, viaView)
		op, payload := readFrame(t, postFrame(t, ts, "/filters/movies/query", frame))
		checkFrame(fmt.Sprintf("binary/http via_view=%v", viaView), op, payload)
		op, payload = tcpRoundTrip(t, addr, frame)
		checkFrame(fmt.Sprintf("binary/tcp via_view=%v", viaView), op, payload)
	}

	var st StatsResponse
	doJSON(t, ts, "GET", "/stats", nil, &st)
	if vc := st.Filters["movies"].ViewCache; vc != (FilterStats{}).ViewCache {
		t.Fatalf("view_cache = %+v, want every count 0", vc)
	}
}

// rawJSON sends body (nil for none) as JSON and returns the response
// whatever its status; the caller closes the body.
func rawJSON(t *testing.T, ts *httptest.Server, method, path string, body any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	return resp
}

// doJSON is rawJSON failing the test on a 4xx/5xx, decoding the body
// into out when non-nil.
func doJSON(t *testing.T, ts *httptest.Server, method, path string, body, out any) *http.Response {
	t.Helper()
	resp := rawJSON(t, ts, method, path, body)
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: unmarshal %q: %v", method, path, data, err)
		}
	}
	return resp
}

func TestHTTPEndToEnd(t *testing.T) {
	reg := NewRegistry(0)
	ts := httptest.NewServer(NewHandler(reg))
	defer ts.Close()

	doJSON(t, ts, "PUT", "/filters/titles", CreateRequest{
		Variant: "chained", Shards: 4, Capacity: 1 << 14, NumAttrs: 2, Seed: 9,
	}, nil)

	keys := []uint64{10, 20, 30, 1 << 60}
	attrs := [][]uint64{{1, 2}, {1, 3}, {2, 2}, {7, 7}}
	var ins InsertResponse
	doJSON(t, ts, "POST", "/filters/titles/insert", InsertRequest{Keys: keys, Attrs: attrs}, &ins)
	if ins.Accepted != 4 || len(ins.Errors) != 0 {
		t.Fatalf("insert response = %+v", ins)
	}

	// Batched query with a predicate: key 10 matches attr0=1, key 30 doesn't.
	var q QueryResponse
	doJSON(t, ts, "POST", "/filters/titles/query", QueryRequest{
		Keys:      []uint64{10, 20, 30, 40, 1 << 60},
		Predicate: []CondJSON{{Attr: 0, Values: []uint64{1}}},
	}, &q)
	if len(q.Results) != 5 || !q.Results[0] || !q.Results[1] {
		t.Fatalf("query results = %v", q.Results)
	}
	var st StatsResponse
	doJSON(t, ts, "GET", "/stats", nil, &st)
	fs, ok := st.Filters["titles"]
	if !ok {
		t.Fatalf("stats missing filter: %+v", st)
	}
	if fs.Rows != 4 || fs.Shards != 4 {
		t.Fatalf("stats = %+v", fs)
	}

	// Snapshot → restore under a new name preserves contents.
	resp, err := ts.Client().Get(ts.URL + "/filters/titles/snapshot")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	snap, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(snap) == 0 {
		t.Fatalf("snapshot: %d, %d bytes", resp.StatusCode, len(snap))
	}
	rresp, err := ts.Client().Post(ts.URL+"/filters/copy/restore", "application/octet-stream", bytes.NewReader(snap))
	if err != nil || rresp.StatusCode != http.StatusCreated {
		t.Fatalf("restore: %v %v", err, rresp.Status)
	}
	rresp.Body.Close()
	doJSON(t, ts, "POST", "/filters/copy/query", QueryRequest{Keys: keys}, &q)
	for i, ok := range q.Results {
		if !ok {
			t.Fatalf("restored copy lost key %d", keys[i])
		}
	}

	// Delete; the name stops resolving.
	req, _ := http.NewRequest("DELETE", ts.URL+"/filters/copy", nil)
	dresp, err := ts.Client().Do(req)
	if err != nil || dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %v %v", err, dresp.Status)
	}
	dresp.Body.Close()
	qresp, err := ts.Client().Post(ts.URL+"/filters/copy/query", "application/json", bytes.NewReader([]byte(`{"keys":[1]}`)))
	if err != nil || qresp.StatusCode != http.StatusNotFound {
		t.Fatalf("query deleted filter: %v %v", err, qresp.Status)
	}
	qresp.Body.Close()
}

// TestHTTPPerFilterStats covers GET /filters/{name}/stats: a single
// filter's occupancy without scraping the whole registry.
func TestHTTPPerFilterStats(t *testing.T) {
	reg, e := testRegistry(t)
	insertRows(t, e, 1000)
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/filters/movies/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st FilterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || st.Rows != 1000 {
		t.Fatalf("stats = %+v, want 4 shards / 1000 rows", st.Stats)
	}

	if resp, err := http.Get(srv.URL + "/filters/nosuch/stats"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("missing filter: status %d, want 404", resp.StatusCode)
		}
	}
}

func TestHTTPBadRequests(t *testing.T) {
	reg := NewRegistry(0)
	ts := httptest.NewServer(NewHandler(reg))
	defer ts.Close()

	cases := []struct {
		method, path, body string
		want               int
	}{
		{"PUT", "/filters/x", `{"variant":"wat"}`, http.StatusBadRequest},
		{"PUT", "/filters/x", `not json`, http.StatusBadRequest},
		{"POST", "/filters/none/query", `{"keys":[1]}`, http.StatusNotFound},
		{"POST", "/filters/none/insert", `{"keys":[1],"attrs":[[0,0]]}`, http.StatusNotFound},
		{"GET", "/filters/none/snapshot", "", http.StatusNotFound},
		{"POST", "/filters/x/restore", "garbage", http.StatusBadRequest},
		{"DELETE", "/filters/none", "", http.StatusNotFound},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader([]byte(c.body)))
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: got %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}

	// Shape mismatch and bad predicate attribute on a live filter.
	doJSON(t, ts, "PUT", "/filters/x", CreateRequest{Capacity: 1024, NumAttrs: 1}, nil)
	for _, body := range []string{
		`{"keys":[1,2],"attrs":[[0]]}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/filters/x/insert", "application/json", bytes.NewReader([]byte(body)))
		if err != nil || resp.StatusCode != http.StatusBadRequest {
			t.Errorf("insert shape mismatch: %v %v", err, resp.Status)
		}
		resp.Body.Close()
	}
	resp, err := ts.Client().Post(ts.URL+"/filters/x/query", "application/json",
		bytes.NewReader([]byte(`{"keys":[1],"predicate":[{"attr":5,"values":[1]}]}`)))
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("query bad predicate: %v %v", err, resp.Status)
	}
	resp.Body.Close()
}

// TestHTTPConcurrent exercises the full HTTP stack under -race:
// concurrent batched inserts, queries with and without the ignored
// via_view hint, and stats.
func TestHTTPConcurrent(t *testing.T) {
	reg := NewRegistry(8)
	ts := httptest.NewServer(NewHandler(reg))
	defer ts.Close()
	doJSON(t, ts, "PUT", "/filters/t", CreateRequest{Shards: 8, Capacity: 1 << 16, NumAttrs: 1}, nil)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				keys := make([]uint64, 50)
				attrs := make([][]uint64, 50)
				for i := range keys {
					keys[i] = uint64(g*1000+it*50+i) * 2654435761
					attrs[i] = []uint64{uint64(i % 3)}
				}
				var ins InsertResponse
				doJSON(t, ts, "POST", "/filters/t/insert", InsertRequest{Keys: keys, Attrs: attrs}, &ins)
				if ins.Accepted != 50 {
					t.Errorf("writer %d: accepted %d of 50: %+v", g, ins.Accepted, ins.Errors)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				keys := make([]uint64, 100)
				for i := range keys {
					keys[i] = uint64(g*100+i) * 2654435761
				}
				var q QueryResponse
				doJSON(t, ts, "POST", "/filters/t/query", QueryRequest{
					Keys:      keys,
					Predicate: []CondJSON{{Attr: 0, Values: []uint64{uint64(g % 3)}}},
					ViaView:   it%2 == 0,
				}, &q)
				if len(q.Results) != 100 {
					t.Errorf("reader %d: %d results", g, len(q.Results))
					return
				}
				var st StatsResponse
				doJSON(t, ts, "GET", "/stats", nil, &st)
			}
		}(g)
	}
	wg.Wait()

	// All 4*10*50 inserted keys must be queryable afterwards.
	var st StatsResponse
	doJSON(t, ts, "GET", "/stats", nil, &st)
	if got := st.Filters["t"].Rows; got != 2000 {
		t.Fatalf("rows = %d, want 2000", got)
	}
}

func TestParseVariant(t *testing.T) {
	for s, want := range map[string]core.Variant{
		"": core.VariantChained, "chained": core.VariantChained, "Plain": core.VariantPlain,
		"bloom": core.VariantBloom, "MIXED": core.VariantMixed,
	} {
		got, err := ParseVariant(s)
		if err != nil || got != want {
			t.Errorf("ParseVariant(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseVariant("nope"); err == nil {
		t.Error("ParseVariant accepted junk")
	}
	if fmt.Sprint(core.VariantChained) != "Chained" {
		t.Error("variant String changed")
	}
}

// TestBodyLimitReturns413 drives an insert whose JSON body exceeds the
// handler's byte cap and expects 413 with a JSON error payload.
func TestBodyLimitReturns413(t *testing.T) {
	reg, _ := testRegistry(t)
	ts := httptest.NewServer(NewHandlerOpts(reg, HandlerOptions{MaxBodyBytes: 1024}))
	defer ts.Close()

	keys := make([]uint64, 1024)
	attrs := make([][]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(i)
		attrs[i] = []uint64{1, 2}
	}
	body, _ := json.Marshal(InsertRequest{Keys: keys, Attrs: attrs})
	for _, path := range []string{"/filters/movies/insert", "/filters/movies/query", "/filters/movies/restore"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s: status %d, want 413 (%s)", path, resp.StatusCode, data)
		}
		var msg map[string]string
		if err := json.Unmarshal(data, &msg); err != nil || msg["error"] == "" {
			t.Fatalf("POST %s: not a JSON error payload: %q", path, data)
		}
	}
	// A body under the cap still works.
	small, _ := json.Marshal(InsertRequest{Keys: keys[:4], Attrs: attrs[:4]})
	resp, err := http.Post(ts.URL+"/filters/movies/insert", "application/json", bytes.NewReader(small))
	if err != nil {
		t.Fatalf("small insert: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small insert: status %d", resp.StatusCode)
	}
}

// TestRegistryDurableAcrossReopen exercises the registry-store wiring
// without HTTP: create/insert/restore/delete through a durable registry,
// reopen the store, and expect the same catalog and contents.
func TestRegistryDurableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	reg := NewRegistry(4)
	reg.AttachStore(st)

	e, err := reg.Create("jobs", shard.Options{
		Shards: 2,
		Params: core.Params{NumAttrs: 2, Capacity: 1 << 12, Seed: 3},
	}, nil)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	keys := []uint64{11, 22, 33}
	if _, err := e.InsertBatch(nil, keys, [][]uint64{{1, 0}, {2, 1}, {3, 0}}, nil); err != nil {
		t.Fatalf("durable insert: %v", err)
	}
	snap, err := e.Filter().Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if _, err := reg.Restore("jobs-copy", snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if _, err := reg.Create("doomed", shard.Options{Params: core.Params{NumAttrs: 1, Capacity: 256}}, nil); err != nil {
		t.Fatalf("Create doomed: %v", err)
	}
	if ok, err := reg.Delete("doomed"); !ok || err != nil {
		t.Fatalf("Delete: %v %v", ok, err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("store.Close: %v", err)
	}

	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	reg2 := NewRegistry(4)
	reg2.AttachStore(st2)
	if names := reg2.Names(); len(names) != 2 || names[0] != "jobs" || names[1] != "jobs-copy" {
		t.Fatalf("recovered names: %v", names)
	}
	for _, name := range []string{"jobs", "jobs-copy"} {
		e2, ok := reg2.Get(name)
		if !ok {
			t.Fatalf("%s missing after reopen", name)
		}
		for _, k := range keys {
			if !e2.Filter().QueryKey(k) {
				t.Fatalf("%s lost key %d after reopen", name, k)
			}
		}
	}
}

// TestRestoreRouteRejectsCorruptFlags: a snapshot whose flags array sets
// a bit no filter writes on an occupied slot answers 400 on the restore
// route and creates no filter. Accepting it would let the next predicate
// query index a sketch the slot does not have and panic the daemon.
func TestRestoreRouteRejectsCorruptFlags(t *testing.T) {
	for _, v := range []core.Variant{core.VariantPlain, core.VariantChained, core.VariantBloom, core.VariantMixed} {
		t.Run(v.String(), func(t *testing.T) {
			sf, err := shard.New(shard.Options{Shards: 2,
				Params: core.Params{Variant: v, NumAttrs: 2, Capacity: 1 << 12, Seed: 5}})
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]uint64, 300)
			attrs := make([][]uint64, len(keys))
			for i := range keys {
				keys[i], attrs[i] = uint64(i)*7919+1, []uint64{uint64(i % 5), 1}
			}
			sf.InsertBatch(keys, attrs)
			snap, err := sf.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			reg := NewRegistry(0)
			ts := httptest.NewServer(NewHandler(reg))
			defer ts.Close()
			resp, err := ts.Client().Post(ts.URL+"/filters/t/restore", "application/octet-stream",
				bytes.NewReader(corruptFlag(t, snap, 1)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("restore of a corrupt snapshot answered %d, want 400", resp.StatusCode)
			}
			if _, ok := reg.Get("t"); ok {
				t.Fatal("a refused restore created the filter")
			}
		})
	}
}

// TestCreateRouteRejectsHugeShardCount: a create whose shard count would
// allocate gigabytes before the first row is refused with 400, creates no
// filter, and leaves the server serving.
func TestCreateRouteRejectsHugeShardCount(t *testing.T) {
	reg := NewRegistry(0)
	ts := httptest.NewServer(NewHandler(reg))
	defer ts.Close()
	put := func(name, body string) int {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/filters/"+name, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put("huge", `{"variant":"chained","shards":100000000,"capacity":1024,"num_attrs":1}`); code != http.StatusBadRequest {
		t.Fatalf("create with 100000000 shards answered %d, want 400", code)
	}
	if _, ok := reg.Get("huge"); ok {
		t.Fatal("a refused create registered the filter")
	}
	if code := put("small", `{"variant":"chained","shards":4,"capacity":1024,"num_attrs":1}`); code != http.StatusCreated {
		t.Fatalf("create after the refusal answered %d, want 201", code)
	}
}

// TestRestoreRouteRejectsTooManyShards: a crafted snapshot of more shards
// than a create may ask for (1024) answers 400 on the restore route and
// creates no filter; a snapshot at the bound still restores.
func TestRestoreRouteRejectsTooManyShards(t *testing.T) {
	sf, err := shard.New(shard.Options{Params: core.Params{NumAttrs: 1, Buckets: 1, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	one, err := sf.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// one is the 8-byte magic, the shard count, then one length-prefixed
	// shard payload; repeat that payload n times under a count of n.
	repeat := func(n int) []byte {
		out := binary.LittleEndian.AppendUint64(bytes.Clone(one[:8]), uint64(n))
		for i := 0; i < n; i++ {
			out = append(out, one[16:]...)
		}
		return out
	}
	reg := NewRegistry(0)
	ts := httptest.NewServer(NewHandler(reg))
	defer ts.Close()
	for _, tc := range []struct {
		name   string
		shards int
		code   int
	}{{"over", 1025, http.StatusBadRequest}, {"at", 1024, http.StatusCreated}} {
		resp, err := ts.Client().Post(ts.URL+"/filters/"+tc.name+"/restore", "application/octet-stream",
			bytes.NewReader(repeat(tc.shards)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("restore of %d shards answered %d, want %d", tc.shards, resp.StatusCode, tc.code)
		}
		e, ok := reg.Get(tc.name)
		if ok != (tc.code == http.StatusCreated) {
			t.Fatalf("restore of %d shards: filter registered = %v", tc.shards, ok)
		}
		if ok && e.Filter().Shards() != tc.shards {
			t.Fatalf("restored %d shards, want %d", e.Filter().Shards(), tc.shards)
		}
	}
}

// corruptFlag returns a copy of snap with flag set in the flags byte of
// the first occupied, unflagged slot of the first filter payload: the
// 8-byte magic "CCF1", 19 header words (bucket size at word 6, bucket
// count at word 10), the fingerprints, then one flags byte per slot.
func corruptFlag(t *testing.T, snap []byte, flag byte) []byte {
	t.Helper()
	out := bytes.Clone(snap)
	p := bytes.Index(out, []byte("CCF1\x00\x00\x00\x00"))
	if p < 0 {
		t.Fatal("snapshot holds no filter payload")
	}
	word := func(i int) int { return int(binary.LittleEndian.Uint64(out[p+8+8*i:])) }
	n := word(6) * word(10)
	fps, flags := out[p+160:], out[p+160+2*n:]
	for i := 0; i < n; i++ {
		if binary.LittleEndian.Uint16(fps[2*i:]) != 0 && flags[i] == 0 {
			flags[i] = flag
			return out
		}
	}
	t.Fatal("filter payload has no occupied slot")
	return nil
}
