package server

import (
	"net/http/httptest"
	"testing"
	"time"

	"ccf/internal/core"
	"ccf/internal/shard"
	"ccf/internal/store"
)

func growServerRows(n int) ([]uint64, [][]uint64) {
	keys := make([]uint64, n)
	attrs := make([][]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 31
		attrs[i] = []uint64{uint64(i % 6), uint64(i % 3)}
	}
	return keys, attrs
}

// TestAutoGrowThroughHTTP is the serving-layer acceptance test: a filter
// PUT at capacity N with an auto_grow policy absorbs 4N inserts over the
// API with zero per-row failures, and the stats endpoint reports the
// ladder detail operators need (levels, grows, per-level occupancy,
// free-slot estimates, the policy itself).
func TestAutoGrowThroughHTTP(t *testing.T) {
	reg := NewRegistry(0)
	ts := httptest.NewServer(NewHandler(reg))
	defer ts.Close()

	const n = 2048
	doJSON(t, ts, "PUT", "/filters/elastic", CreateRequest{
		Variant: "chained", Shards: 2, Capacity: n, NumAttrs: 2, Seed: 3,
		AutoGrow: &AutoGrowPolicy{MaxLevels: 6, GrowAtLoad: 0.85, FoldAtLevels: -1},
	}, nil)

	keys, attrs := growServerRows(4 * n)
	const batch = 512
	for lo := 0; lo < len(keys); lo += batch {
		end := min(lo+batch, len(keys))
		var ins InsertResponse
		doJSON(t, ts, "POST", "/filters/elastic/insert",
			InsertRequest{Keys: keys[lo:end], Attrs: attrs[lo:end]}, &ins)
		if ins.Accepted != end-lo {
			t.Fatalf("batch at %d: accepted %d of %d (errors %v)", lo, ins.Accepted, end-lo, ins.Errors)
		}
		if ins.Statuses != nil {
			t.Fatalf("batch at %d: unexpected statuses %v", lo, ins.Statuses)
		}
	}

	var fs FilterStats
	doJSON(t, ts, "GET", "/filters/elastic/stats", nil, &fs)
	if fs.MaxLevels < 2 || fs.Grows < 1 {
		t.Fatalf("stats show no growth: max_levels %d grows %d", fs.MaxLevels, fs.Grows)
	}
	if fs.Rows != 4*n {
		t.Fatalf("rows %d, want %d", fs.Rows, 4*n)
	}
	if fs.AutoGrow == nil || fs.AutoGrow.MaxLevels != 6 {
		t.Fatalf("policy not echoed: %+v", fs.AutoGrow)
	}
	if len(fs.ShardDetail) != 2 {
		t.Fatalf("shard detail missing: %+v", fs.ShardDetail)
	}
	for i, d := range fs.ShardDetail {
		if len(d.PerLevel) != d.Levels || d.Levels < 1 {
			t.Fatalf("shard %d per-level detail malformed: %+v", i, d)
		}
		if d.FreeSlots != d.Capacity-d.Occupied {
			t.Fatalf("shard %d free slots %d, want %d", i, d.FreeSlots, d.Capacity-d.Occupied)
		}
	}

	var q QueryResponse
	doJSON(t, ts, "POST", "/filters/elastic/query", QueryRequest{Keys: keys}, &q)
	for i, r := range q.Results {
		if !r {
			t.Fatalf("false negative for key %d after HTTP growth", keys[i])
		}
	}
}

// TestInsertStatusesThroughHTTP pins the per-row status wire contract on
// a fixed-size filter that cannot absorb the batch: every row gets a
// status, rows after the first failure keep landing, and Accepted
// matches the inserted count.
func TestInsertStatusesThroughHTTP(t *testing.T) {
	reg := NewRegistry(0)
	ts := httptest.NewServer(NewHandler(reg))
	defer ts.Close()

	doJSON(t, ts, "PUT", "/filters/fixed", CreateRequest{
		Variant: "plain", Capacity: 64, NumAttrs: 1, Seed: 3,
	}, nil)
	keys := make([]uint64, 2048)
	attrs := make([][]uint64, 2048)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 5
		attrs[i] = []uint64{uint64(i % 3)}
	}
	var ins InsertResponse
	doJSON(t, ts, "POST", "/filters/fixed/insert", InsertRequest{Keys: keys, Attrs: attrs}, &ins)
	if len(ins.Statuses) != len(keys) {
		t.Fatalf("statuses length %d, want %d", len(ins.Statuses), len(keys))
	}
	counts := map[string]int{}
	for _, s := range ins.Statuses {
		counts[s]++
	}
	if counts["full"] == 0 {
		t.Fatalf("no full rows reported: %v", counts)
	}
	if counts["inserted"] != ins.Accepted {
		t.Fatalf("accepted %d but %d rows marked inserted", ins.Accepted, counts["inserted"])
	}
	if len(ins.Errors) != len(keys)-ins.Accepted {
		t.Fatalf("errors %d, want %d", len(ins.Errors), len(keys)-ins.Accepted)
	}
	// The last rows were attempted, not aborted: at least one row in the
	// final quarter must carry a status either way.
	tail := ins.Statuses[3*len(keys)/4:]
	landed := 0
	for _, s := range tail {
		if s == "inserted" {
			landed++
		}
	}
	if landed == 0 {
		t.Fatal("no tail row landed; batch looks aborted at the first failure")
	}
}

// TestPolicySurvivesRestart pins the recovery contract: a filter's
// explicit growth budget (carried by its snapshot) wins over the
// server's default policy after a restart — the recovered ladder must
// not be clamped — and a fixed-size filter stays fixed unless the
// server default says otherwise.
func TestPolicySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(0)
	reg.AttachStore(st)
	if _, err := reg.Create("big", shard.Options{
		Params: core.Params{NumAttrs: 1, Capacity: 256, Seed: 2},
	}, &AutoGrowPolicy{MaxLevels: 12, GrowthFactor: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("fixed", shard.Options{
		Params: core.Params{NumAttrs: 1, Capacity: 256, Seed: 2},
	}, &AutoGrowPolicy{MaxLevels: -1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg = NewRegistry(0)
	def := DefaultAutoGrowPolicy()
	reg.SetDefaultPolicy(&def)
	reg.AttachStore(st)
	e, ok := reg.Get("big")
	if !ok {
		t.Fatal("big missing after restart")
	}
	if p := e.Policy(); p == nil || p.MaxLevels != 12 || p.GrowthFactor != 4 {
		t.Fatalf("explicit budget clobbered: %+v", e.Policy())
	}
	if opts := e.Filter().AutoGrow(); opts.MaxLevels != 12 || opts.GrowthFactor != 4 {
		t.Fatalf("recovered ladder budget clobbered: %+v", opts)
	}
	e, ok = reg.Get("fixed")
	if !ok {
		t.Fatal("fixed missing after restart")
	}
	if p := e.Policy(); p == nil || p.MaxLevels != def.MaxLevels {
		t.Fatalf("fixed filter did not adopt the default policy: %+v", e.Policy())
	}
}

// TestPolicyFoldTrigger wires the whole elastic loop through a durable
// registry: growth driven by inserts, a fold scheduled by the policy and
// executed by the store's background worker, and a collapsed ladder at
// the end with every row still answering.
func TestPolicyFoldTrigger(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := NewRegistry(0)
	reg.AttachStore(st)

	const n = 1024
	e, err := reg.Create("elastic", shard.Options{
		Shards: 2,
		Params: core.Params{Variant: core.VariantChained, NumAttrs: 2, Capacity: n, Seed: 9},
	}, &AutoGrowPolicy{MaxLevels: 6, GrowAtLoad: 0.85, FoldAtLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	keys, attrs := growServerRows(4 * n)
	const batch = 256
	for lo := 0; lo < len(keys); lo += batch {
		end := min(lo+batch, len(keys))
		errs, err := e.InsertBatch(nil, keys[lo:end], attrs[lo:end], nil)
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		for i, rowErr := range errs {
			if rowErr != nil {
				t.Fatalf("row %d: %v", lo+i, rowErr)
			}
		}
	}

	// The policy must have scheduled at least one background fold; wait
	// for the worker to finish one.
	deadline := time.Now().Add(10 * time.Second)
	for e.Folds() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if e.Folds() == 0 {
		t.Fatalf("no fold completed (stats %+v)", e.Filter().Stats())
	}
	fst := e.Filter().Stats()
	if fst.Rows != 4*n {
		t.Fatalf("rows %d, want %d", fst.Rows, 4*n)
	}
	out := e.Filter().QueryBatchInto(nil, keys, nil)
	for i := range out {
		if !out[i] {
			t.Fatalf("false negative for key %d after policy fold", keys[i])
		}
	}
}
