package shard

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ccf/internal/core"
	"ccf/internal/obs/trace"
)

// These tests pin the serving path's allocation discipline: a batch probe
// through the sharded filter must not allocate in steady state when the
// caller recycles its result buffer via the *Into entry points. The
// grouping scratch cycles through a pool, and batch queries and inserts
// run their shard groups on the calling goroutine, starting no goroutine
// at any batch size.

func loadedSharded(t testing.TB, shards int) (*ShardedFilter, []uint64) {
	t.Helper()
	return loadedShardedBits(t, shards, 0)
}

// loadedShardedBits is loadedSharded with AttrBits set (0 = the default).
func loadedShardedBits(t testing.TB, shards, attrBits int) (*ShardedFilter, []uint64) {
	t.Helper()
	return loadedOpts(t, Options{
		Shards: shards,
		Params: core.Params{NumAttrs: 2, Capacity: 1 << 14, AttrBits: attrBits, Seed: 5},
	}, 1<<13)
}

// loadedOpts builds a sharded filter from opts and inserts the first
// rows rows of mkRows.
func loadedOpts(t testing.TB, opts Options, rows int) (*ShardedFilter, []uint64) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	keys, attrs := mkRows(rows)
	for _, err := range s.InsertBatch(keys, attrs) {
		if err != nil {
			t.Fatal(err)
		}
	}
	return s, keys
}

func TestQueryBatchIntoSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	params := core.Params{NumAttrs: 2, Capacity: 1 << 14, Seed: 5}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"shards=1", Options{Shards: 1, Params: params}},
		// The filter ccfd builds: default Options.
		{"shards=4", Options{Shards: 4, Params: params}},
	} {
		s, keys := loadedOpts(t, tc.opts, 1<<13)
		pred := core.And(core.Eq(0, 3))
		// Distinct keys, and keys repeating in runs of 1 to 4.
		for j, batch := range [][]uint64{keys[:1024], withRuns(keys)[:1024]} {
			dst := make([]bool, 0, len(batch))
			dst = s.QueryBatchInto(dst, batch, pred) // warm the grouping scratch pool
			if n := testing.AllocsPerRun(200, func() {
				dst = s.QueryBatchInto(dst[:0], batch, pred)
			}); n != 0 {
				t.Errorf("%s/%s: QueryBatchInto allocates %.2f allocs/op, want 0",
					tc.name, []string{"distinct", "runs"}[j], n)
			}
		}
	}
}

// TestQueryKeyBatchIntoSteadyStateZeroAlloc: key membership (the empty
// predicate) through the one batch entry point, untraced and without a
// deadline, on the single-shard fast path and the grouped path.
func TestQueryKeyBatchIntoSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	for _, shards := range []int{1, 4} {
		s, keys := loadedSharded(t, shards)
		batch := keys[:1024]
		dst := make([]bool, 0, len(batch))
		dst, _ = s.QueryBatchContext(nil, dst, batch, nil, nil) // warm the scratch pools
		if n := testing.AllocsPerRun(200, func() {
			dst, _ = s.QueryBatchContext(nil, dst[:0], batch, nil, nil)
		}); n != 0 {
			t.Errorf("shards=%d: key-only QueryBatchContext allocates %.2f allocs/op, want 0", shards, n)
		}
	}
}

// TestContendedMixSteadyStateZeroAlloc pins the contended serving shape:
// a client interleaving batched probes with batched inserts (the bench
// harness's 95/5 read/write mix) must stay allocation-free in steady
// state.
func TestContendedMixSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	s, keys := loadedSharded(t, 4)
	pred := core.And(core.Eq(0, 3))
	batch := keys[:1024]
	wkeys := make([]uint64, 256)
	wattrs := make([][]uint64, 256)
	for i := range wattrs {
		wattrs[i] = []uint64{uint64(i % 7), 1}
	}
	next := uint64(1 << 41)
	out := make([]bool, 0, len(batch))
	errs := make([]error, 0, len(wkeys))
	mix := func() {
		for r := 0; r < 19; r++ { // 19 read batches per write batch ≈ 95/5
			out = s.QueryBatchInto(out[:0], batch, pred)
		}
		for i := range wkeys {
			wkeys[i] = next*2654435761 + 11
			next++
		}
		errs = s.InsertBatchInto(errs[:0], wkeys, wattrs)
	}
	mix() // warm scratch, result buffers and kick paths
	if n := testing.AllocsPerRun(20, mix); n != 0 {
		t.Errorf("mixed 95/5 batch loop allocates %.2f allocs/op, want 0", n)
	}
}

// TestInsertBatchIntoSteadyStateZeroAlloc pins batch inserts at 0
// allocs/op on the single-shard path and the grouped path, up to the
// shape both benchmark workloads insert: 1024-row batches into the
// 4-shard filter ccfd builds with default Options.
func TestInsertBatchIntoSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	params := core.Params{NumAttrs: 1, Capacity: 1 << 18, Seed: 6}
	for _, tc := range []struct {
		name  string
		opts  Options
		batch int
	}{
		{"shards=1", Options{Shards: 1, Params: params}, 256},
		{"shards=4", Options{Shards: 4, Params: params}, 256},
		{"shards=4/rows=1024", Options{Shards: 4, Params: params}, 1024},
	} {
		s, err := New(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]uint64, tc.batch)
		attrs := make([][]uint64, tc.batch)
		for i := range attrs {
			attrs[i] = []uint64{uint64(i % 5)}
		}
		next := uint64(0)
		fill := func() {
			for i := range keys {
				keys[i] = next*2654435761 + 1
				next++
			}
		}
		errs := make([]error, 0, tc.batch)
		fill()
		errs = s.InsertBatchInto(errs, keys, attrs) // warm scratch + kick paths
		if n := testing.AllocsPerRun(50, func() {
			fill()
			errs = s.InsertBatchInto(errs[:0], keys, attrs)
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		}); n != 0 {
			t.Errorf("%s: InsertBatchInto allocates %.2f allocs/op, want 0", tc.name, n)
		}
	}
}

// BenchmarkShardedQueryBatch is the committed serving-path benchmark: the
// batched sharded probe with a recycled result buffer, reported per key.
// The shards=N cases probe a cache-resident table from one goroutine;
// serving is the shape ccfd serves: 4 shards built with default Options,
// a chained table out of L2, and 1024-key batches from two clients at
// once.
func BenchmarkShardedQueryBatch(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "shards=1", 4: "shards=4", 16: "shards=16"}[shards], func(b *testing.B) {
			s, keys := loadedSharded(b, shards)
			pred := core.And(core.Eq(0, 3))
			const batch = 1024
			dst := make([]bool, 0, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := (i * batch) % (len(keys) - batch)
				dst = s.QueryBatchInto(dst[:0], keys[lo:lo+batch], pred)
			}
			b.StopTimer()
			if b.Elapsed() > 0 {
				nsPerKey := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / batch
				b.ReportMetric(nsPerKey, "ns/key")
			}
		})
	}
	b.Run("serving", func(b *testing.B) {
		s, keys := loadedOpts(b, Options{
			Shards: 4,
			Params: core.Params{Variant: core.VariantChained, NumAttrs: 2, Capacity: 1 << 20, Seed: 5},
		}, 1<<19)
		pred := core.And(core.Eq(0, 3))
		const batch = 1024
		// Two clients even on a one-core runner: RunParallel spawns
		// GOMAXPROCS·p goroutines.
		if p := 2 / runtime.GOMAXPROCS(0); p > 1 {
			b.SetParallelism(p)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var client atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			i := int(client.Add(1)) * 7919
			dst := make([]bool, 0, batch)
			for ; pb.Next(); i++ {
				lo := (i * batch) % (len(keys) - batch)
				dst = s.QueryBatchInto(dst[:0], keys[lo:lo+batch], pred)
			}
		})
		b.StopTimer()
		if b.Elapsed() > 0 {
			nsPerKey := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / batch
			b.ReportMetric(nsPerKey, "ns/key")
		}
	})
}

// BenchmarkShardedQueryBatchContended runs a read-heavy contended shape:
// several goroutines issuing batched probes while ~5% of their batches are
// inserts, so readers and writers queue on the same shard locks.
func BenchmarkShardedQueryBatchContended(b *testing.B) {
	s, err := New(Options{
		Shards: 4,
		Params: core.Params{NumAttrs: 2, Capacity: 1 << 16, Seed: 5},
	})
	if err != nil {
		b.Fatal(err)
	}
	keys, attrs := mkRows(1 << 13)
	for _, err := range s.InsertBatch(keys, attrs) {
		if err != nil {
			b.Fatal(err)
		}
	}
	pred := core.And(core.Eq(0, 3))
	const batch = 1024
	b.ReportAllocs()
	// ≥ 4 client goroutines even on a single-core runner:
	// RunParallel spawns GOMAXPROCS·p workers.
	if p := 4 / runtime.GOMAXPROCS(0); p > 1 {
		b.SetParallelism(p)
	}
	b.ResetTimer()
	var worker int64
	b.RunParallel(func(pb *testing.PB) {
		c := int(atomic.AddInt64(&worker, 1))
		out := make([]bool, 0, batch)
		errs := make([]error, 0, 256)
		wkeys := make([]uint64, 256)
		wattrs := make([][]uint64, 256)
		for i := range wattrs {
			// Second attribute 9 is disjoint from every stable row's
			// (mkRows uses i%3), so the churn deletes below can never
			// alias away a stable entry.
			wattrs[i] = []uint64{uint64(i % 7), 9}
		}
		next := uint64(c) << 40
		i := 0
		for pb.Next() {
			if i%20 == 19 {
				// 5% write iterations: insert a fresh batch, then
				// delete it again, so occupancy (and with it probe
				// and kick cost) stays in steady state however long
				// the benchmark runs.
				for j := range wkeys {
					wkeys[j] = next*2654435761 + 7
					next++
				}
				errs = s.InsertBatchInto(errs[:0], wkeys, wattrs)
				for j := range wkeys {
					s.Delete(wkeys[j], wattrs[j])
				}
			} else {
				lo := (i * batch * c) % (len(keys) - batch)
				out = s.QueryBatchInto(out[:0], keys[lo:lo+batch], pred)
			}
			i++
		}
	})
	b.StopTimer()
	if b.Elapsed() > 0 {
		nsPerKey := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / batch
		b.ReportMetric(nsPerKey, "ns/key")
	}
}

func BenchmarkShardedInsertBatch(b *testing.B) {
	s, err := New(Options{
		Shards: 4,
		Params: core.Params{NumAttrs: 1, Capacity: 1 << 22, Seed: 8},
	})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 1024
	keys := make([]uint64, batch)
	attrs := make([][]uint64, batch)
	for i := range attrs {
		attrs[i] = []uint64{uint64(i % 5)}
	}
	errs := make([]error, 0, batch)
	next := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = next*2654435761 + 3
			next++
		}
		errs = s.InsertBatchInto(errs[:0], keys, attrs)
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		nsPerKey := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / batch
		b.ReportMetric(nsPerKey, "ns/key")
	}
}

// TestQueryBatchTracedZeroAlloc pins the acceptance criterion for the
// tracing layer: the traced probe path — request context, per-shard-group
// spans with their attributes, trace finish — must stay allocation-free
// in steady state, both with sampling off (the always-on production
// shape) and with every request sampled into the flight recorder.
func TestQueryBatchTracedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	for _, mode := range []struct {
		name string
		opts trace.Options
	}{
		{"unsampled", trace.Options{Recorder: trace.NewRecorder(4, 4)}},
		{"sampled", trace.Options{SampleEvery: 1, Recorder: trace.NewRecorder(4, 4)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			tr := trace.New(mode.opts)
			s, keys := loadedSharded(t, 4)
			pred := core.And(core.Eq(0, 3))
			batch := keys[:1024]
			dst := make([]bool, 0, len(batch))
			run := func() {
				r := tr.StartRequest("")
				dst, _ = s.QueryBatchContext(nil, dst[:0], batch, pred, r)
				tr.Finish(r, 200)
			}
			// Warm past the request pool and the recorder's slot-recycled
			// span storage before counting.
			for i := 0; i < 16; i++ {
				run()
			}
			if n := testing.AllocsPerRun(200, run); n != 0 {
				t.Errorf("%s: traced QueryBatch allocates %.2f allocs/op, want 0", mode.name, n)
			}
		})
	}
}

// TestQueryKeyBatchTracedZeroAlloc: same guard for key membership traced
// into a sampled recorder.
func TestQueryKeyBatchTracedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	tr := trace.New(trace.Options{SampleEvery: 1, Recorder: trace.NewRecorder(4, 4)})
	s, keys := loadedSharded(t, 4)
	batch := keys[:1024]
	dst := make([]bool, 0, len(batch))
	run := func() {
		r := tr.StartRequest("")
		dst, _ = s.QueryBatchContext(nil, dst[:0], batch, nil, r)
		tr.Finish(r, 200)
	}
	for i := 0; i < 16; i++ {
		run()
	}
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Errorf("traced key-only QueryBatchContext allocates %.2f allocs/op, want 0", n)
	}
}

// TestQueryBatchContextZeroAllocMatrix pins the one batch entry point at
// 0 allocs/op in every combination the serving layer uses: a predicate or
// the empty one (key membership), traced into a sampled recorder or not,
// and with no deadline or a live one — on the single-shard fast path and
// the grouped path.
func TestQueryBatchContextZeroAllocMatrix(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	tracer := trace.New(trace.Options{SampleEvery: 1, Recorder: trace.NewRecorder(4, 4)})
	live, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, shards := range []int{1, 4} {
		s, keys := loadedSharded(t, shards)
		// An AttrBits-16 filter probed with multi-value in-lists needs the
		// largest compiled-predicate scratch.
		wide, _ := loadedShardedBits(t, shards, 16)
		batch := keys[:1024]
		dst := make([]bool, 0, len(batch))
		for _, pc := range []struct {
			name string
			s    *ShardedFilter
			pred core.Predicate
		}{
			{"pred", s, core.And(core.Eq(0, 3))},
			{"pred/attrbits16-inlist", wide, core.And(core.In(0, 3, 5, 1<<40), core.In(1, 1, 70000))},
			{"empty", s, nil},
		} {
			for _, tc := range []struct {
				name string
				tr   *trace.Tracer
			}{{"untraced", nil}, {"traced", tracer}} {
				for _, cc := range []struct {
					name string
					ctx  context.Context
				}{{"nodeadline", nil}, {"deadline", live}} {
					run := func() {
						r := tc.tr.StartRequest("")
						dst, _ = pc.s.QueryBatchContext(cc.ctx, dst[:0], batch, pc.pred, r)
						tc.tr.Finish(r, 200)
					}
					// Warm past the scratch pools, the request pool and the
					// recorder's slot-recycled span storage before counting.
					for i := 0; i < 16; i++ {
						run()
					}
					if n := testing.AllocsPerRun(100, run); n != 0 {
						t.Errorf("shards=%d %s/%s/%s: QueryBatchContext allocates %.2f allocs/op, want 0",
							shards, pc.name, tc.name, cc.name, n)
					}
				}
			}
		}
	}
}

// TestQueryBatchTracedAttributes checks the span payload end to end: one
// shard_probe span per shard group carrying the shard index, key count
// and ladder walk depth.
func TestQueryBatchTracedAttributes(t *testing.T) {
	rec := trace.NewRecorder(4, 4)
	tr := trace.New(trace.Options{SampleEvery: 1, Recorder: rec})
	s, keys := loadedSharded(t, 4)
	pred := core.And(core.Eq(0, 3))
	r := tr.StartRequest("")
	out, _ := s.QueryBatchContext(nil, nil, keys[:256], pred, r)
	if len(out) != 256 {
		t.Fatalf("results = %d, want 256", len(out))
	}
	tr.Finish(r, 200)
	traces := rec.Sampled()
	if len(traces) != 1 {
		t.Fatalf("sampled traces = %d, want 1", len(traces))
	}
	probes := 0
	seenShards := map[int64]bool{}
	totalKeys := int64(0)
	for _, sp := range traces[0].Spans {
		if sp.Phase != trace.PhaseShardProbe {
			continue
		}
		probes++
		sh, ok := sp.Attr(trace.AttrShard)
		if !ok || sh < 0 || sh >= 4 {
			t.Fatalf("shard attr = %d, %v", sh, ok)
		}
		seenShards[sh] = true
		n, ok := sp.Attr(trace.AttrKeys)
		if !ok || n <= 0 {
			t.Fatalf("keys attr = %d, %v", n, ok)
		}
		totalKeys += n
		if lv, ok := sp.Attr(trace.AttrLevels); !ok || lv < 1 {
			t.Fatalf("levels attr = %d, %v (want >= 1 walked level)", lv, ok)
		}
	}
	if probes != 4 || len(seenShards) != 4 {
		t.Fatalf("shard_probe spans = %d over %d shards, want 4 over 4", probes, len(seenShards))
	}
	if totalKeys != 256 {
		t.Fatalf("keys attributed across groups = %d, want 256", totalKeys)
	}
}
