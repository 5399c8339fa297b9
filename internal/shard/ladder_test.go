package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccf/internal/core"
	"ccf/internal/obs/trace"
)

// TestShardedAutoGrow is the sharded acceptance property: a filter
// created at capacity N with an AutoGrow budget absorbs 4N batched
// inserts with zero per-row failures, grows levels, and keeps every row
// queryable through the batch pipeline.
func TestShardedAutoGrow(t *testing.T) {
	const n = 4096
	s, err := New(Options{
		Shards:   4,
		AutoGrow: core.LadderOptions{MaxLevels: 6},
		Params:   core.Params{NumAttrs: 2, Capacity: n, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys, attrs := mkRows(4 * n)
	for i, err := range s.InsertBatch(keys, attrs) {
		if err != nil {
			t.Fatalf("row %d: %v (status %s)", i, err, StatusOf(err))
		}
	}
	st := s.Stats()
	if st.MaxLevels < 2 || st.Grows < 1 {
		t.Fatalf("expected growth: max levels %d, grows %d", st.MaxLevels, st.Grows)
	}
	if st.Rows != 4*n {
		t.Fatalf("rows %d, want %d", st.Rows, 4*n)
	}
	if st.FreeSlots != st.Capacity-st.Occupied {
		t.Fatalf("free slots %d, want %d", st.FreeSlots, st.Capacity-st.Occupied)
	}
	for i, d := range st.ShardDetail {
		if d.Levels < 1 || len(d.PerLevel) != d.Levels {
			t.Fatalf("shard %d detail malformed: %+v", i, d)
		}
	}
	out := s.QueryBatchInto(nil, keys, nil)
	for i := range out {
		if !out[i] {
			t.Fatalf("false negative for key %d after growth", keys[i])
		}
	}

	// A snapshot of the grown filter round-trips with its ladder intact.
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	bst := back.Stats()
	if bst.MaxLevels != st.MaxLevels || bst.Rows != st.Rows || bst.Grows != st.Grows {
		t.Fatalf("round trip: levels %d/%d rows %d/%d grows %d/%d",
			bst.MaxLevels, st.MaxLevels, bst.Rows, st.Rows, bst.Grows, st.Grows)
	}
	for _, k := range keys {
		if !back.QueryKey(k) {
			t.Fatalf("false negative after snapshot round trip: key %d", k)
		}
	}
}

// TestGrowShard exercises the proactive grow entry point and its
// bookkeeping.
func TestGrowShard(t *testing.T) {
	s, err := New(Options{
		Shards:   2,
		AutoGrow: core.LadderOptions{MaxLevels: 3},
		Params:   core.Params{NumAttrs: 1, Capacity: 1024, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.GrowShard(1); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ShardDetail[0].Levels != 1 || st.ShardDetail[1].Levels != 2 {
		t.Fatalf("levels = %d,%d; want 1,2", st.ShardDetail[0].Levels, st.ShardDetail[1].Levels)
	}
	if err := s.GrowShard(7); err == nil {
		t.Fatal("GrowShard of invalid index succeeded")
	}
	if err := s.GrowShard(1); err != nil {
		t.Fatal(err)
	}
	if err := s.GrowShard(1); err != core.ErrMaxLevels {
		t.Fatalf("GrowShard past the budget: %v, want ErrMaxLevels", err)
	}
	if got := s.AutoGrow(); got.MaxLevels != 3 {
		t.Fatalf("AutoGrow() = %+v", got)
	}
	s.SetAutoGrow(core.LadderOptions{MaxLevels: 4})
	if err := s.GrowShard(1); err != nil {
		t.Fatalf("GrowShard after budget raise: %v", err)
	}
}

// TestRowStatuses pins the per-row status mapping callers (and the HTTP
// layer) rely on: a batch with a doomed row reports exactly which rows
// landed and keeps applying the rest — no abort at the first failure.
func TestRowStatuses(t *testing.T) {
	s, err := New(Options{
		Shards: 1,
		Params: core.Params{Variant: core.VariantPlain, NumAttrs: 1, Capacity: 64, Seed: 3, MaxKicks: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys, wide := mkRows(4096)
	attrs := make([][]uint64, len(wide))
	for i := range wide {
		attrs[i] = wide[i][:1]
	}
	errs := s.InsertBatch(keys, attrs)
	statuses := map[RowStatus]int{}
	firstFull := -1
	for i, err := range errs {
		st := StatusOf(err)
		statuses[st]++
		if st == RowFull && firstFull < 0 {
			firstFull = i
		}
	}
	if statuses[RowFull] == 0 {
		t.Fatalf("expected some RowFull rows in an undersized fixed filter, got %v", statuses)
	}
	if firstFull == len(errs)-1 {
		t.Fatal("cannot verify post-failure rows: first full row is the last row")
	}
	// Rows after the first failure must still have been attempted — and
	// with cuckoo displacement some of them land.
	landed := 0
	for _, err := range errs[firstFull+1:] {
		if err == nil {
			landed++
		}
	}
	if landed == 0 {
		t.Fatal("no row after the first ErrFull landed; batch looks aborted")
	}
	// Every row reported inserted must be present.
	for i, err := range errs {
		if err == nil && !s.QueryKey(keys[i]) {
			t.Fatalf("row %d reported inserted but is absent", i)
		}
	}
	if StatusOf(core.ErrAttrCount) != RowBadAttrs || StatusOf(nil) != RowInserted ||
		StatusOf(core.ErrChainLimit) != RowChainLimit {
		t.Fatal("StatusOf mapping broken")
	}
	if RowFull.String() != "full" || RowInserted.String() != "inserted" {
		t.Fatal("RowStatus names broken")
	}
}

// TestGrowFoldTorture races readers against the two elastic-capacity
// mutations at once: inserts that keep forcing reactive level opens,
// explicit GrowShard calls, and periodic Restores of a right-sized
// single-level snapshot containing every stable key — the shard-visible
// effect of a store fold. Readers assert the stable keys never go
// missing; run under -race this is the memory-model check for level
// openings, which append to the ladder's level list under the shard
// write lock.
func TestGrowFoldTorture(t *testing.T) {
	const stable = 2048
	s, err := New(Options{
		Shards:   4,
		AutoGrow: core.LadderOptions{MaxLevels: 8},
		Params:   core.Params{NumAttrs: 2, Capacity: stable, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys, attrs := mkRows(stable)
	for i, err := range s.InsertBatch(keys, attrs) {
		if err != nil {
			t.Fatalf("preload %d: %v", i, err)
		}
	}
	// The fold analog: a right-sized, single-level filter holding exactly
	// the stable keys, restored over the grown one mid-traffic.
	foldedSrc, err := New(Options{
		Shards:   4,
		AutoGrow: core.LadderOptions{MaxLevels: 8},
		Params:   core.Params{NumAttrs: 2, Capacity: 4 * stable, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range foldedSrc.InsertBatch(keys, attrs) {
		if err != nil {
			t.Fatalf("folded preload %d: %v", i, err)
		}
	}
	foldSnap, err := foldedSrc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var misses atomic.Int64
	var wg sync.WaitGroup
	// Readers: batched and point probes over the stable keys.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out := make([]bool, 0, 256)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := (i * 128) % (stable - 256)
				out = s.QueryBatchInto(out[:0], keys[lo:lo+256], nil)
				for j := range out {
					if !out[j] {
						misses.Add(1)
					}
				}
				if !s.QueryKey(keys[(i*7+r)%stable]) {
					misses.Add(1)
				}
			}
		}(r)
	}
	// Writer: churn inserts that overflow the sizing, forcing reactive
	// level opens over and over (each Restore resets to one level).
	wg.Add(1)
	go func() {
		defer wg.Done()
		wkeys := make([]uint64, 128)
		wattrs := make([][]uint64, 128)
		for i := range wattrs {
			wattrs[i] = []uint64{uint64(i % 7), 9}
		}
		next := uint64(1) << 41
		errs := make([]error, 0, 128)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for j := range wkeys {
				wkeys[j] = next*2654435761 + 5
				next++
			}
			errs = s.InsertBatchInto(errs[:0], wkeys, wattrs)
		}
	}()
	// Grower: proactive explicit grows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.GrowShard(i % 4)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// Folder: periodic Restore of the right-sized snapshot, plus stats
	// and snapshot scrapes under the shard read locks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Restore(foldSnap); err != nil {
				t.Errorf("Restore: %v", err)
				return
			}
			s.Stats()
			if _, err := s.Snapshot(); err != nil {
				t.Errorf("Snapshot: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := misses.Load(); n > 0 {
		t.Fatalf("%d false negatives for stable keys during grow/fold torture", n)
	}
	// After the dust settles every stable key is still present.
	for _, k := range keys {
		if !s.QueryKey(k) {
			t.Fatalf("stable key %d missing after torture", k)
		}
	}
}

// withRuns repeats each key of keys in a run of 1, 2, 3, 4, 1, 2, 3, ...
// positions, the shape of a fact table that stores each join key's rows
// together.
func withRuns(keys []uint64) []uint64 {
	out := make([]uint64, 0, len(keys)*16/7+4)
	for i, k := range keys {
		for range 1 + i%7%4 {
			out = append(out, k)
		}
	}
	return out
}

// TestQueryBatchContextRunsMatchPointProbes: a 4-shard request whose
// keys repeat in runs, present and absent alike, answers what per-key
// Query and QueryKey answer. Each shard group keeps its keys in request
// order, so a run stays a run within its group and the tile pipeline
// probes it once.
func TestQueryBatchContextRunsMatchPointProbes(t *testing.T) {
	s, err := New(Options{Shards: 4, Params: core.Params{NumAttrs: 2, Capacity: 1 << 12, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	keys, attrs := mkRows(2048)
	for i, err := range s.InsertBatch(keys, attrs) {
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	probe := make([]uint64, 0, 2*len(keys))
	for _, k := range keys {
		probe = append(probe, k, k^0x5bd1e9955bd1e995)
	}
	probe = withRuns(probe)
	for _, pred := range []core.Predicate{nil, core.And(core.Eq(0, 3)), core.And(core.In(0, 1, 2), core.Eq(1, 0))} {
		for lo := 0; lo < len(probe); lo += 1024 {
			req := probe[lo:min(lo+1024, len(probe))]
			got, err := s.QueryBatchContext(context.Background(), nil, req, pred, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range req {
				want := s.Query(k, pred)
				if len(pred) == 0 {
					want = s.QueryKey(k)
				}
				if got[i] != want {
					t.Fatalf("pred=%v: key[%d] %d batch %v, point %v", pred, lo+i, k, got[i], want)
				}
			}
		}
	}
}

// TestQueryBatchContextMatchesPointProbes is the differential check on the
// one batch entry point over a 2-shard filter grown past one level: the
// empty predicate answers exactly what point QueryKey answers, and a
// predicate exactly what point Query answers, traced and untraced. Plain
// filters also delete rows first, since Delete clears the slot that the
// key-membership probe would otherwise still find.
func TestQueryBatchContextMatchesPointProbes(t *testing.T) {
	tracer := trace.New(trace.Options{SampleEvery: 1, Recorder: trace.NewRecorder(4, 4)})
	for _, v := range []core.Variant{core.VariantPlain, core.VariantChained, core.VariantBloom, core.VariantMixed} {
		s, err := New(Options{
			Shards:   2,
			AutoGrow: core.LadderOptions{MaxLevels: 6},
			Params:   core.Params{Variant: v, NumAttrs: 2, Capacity: 1024, Seed: 9},
		})
		if err != nil {
			t.Fatal(err)
		}
		keys, attrs := mkRows(4096)
		for i, err := range s.InsertBatch(keys, attrs) {
			if err != nil {
				t.Fatalf("%v: row %d: %v", v, i, err)
			}
		}
		if st := s.Stats(); st.MaxLevels < 2 {
			t.Fatalf("%v: ladder did not grow (max levels %d)", v, st.MaxLevels)
		}
		if v == core.VariantPlain {
			for i := 0; i < len(keys); i += 5 {
				if err := s.Delete(keys[i], attrs[i]); err != nil {
					t.Fatalf("delete row %d: %v", i, err)
				}
			}
		}
		probe := make([]uint64, 0, 2*len(keys))
		for _, k := range keys {
			probe = append(probe, k, k^0x5bd1e9955bd1e995)
		}
		for _, pred := range []core.Predicate{nil, core.And(core.Eq(0, 3)), core.And(core.In(0, 1, 2), core.Eq(1, 0))} {
			for _, tr := range []*trace.Tracer{nil, tracer} {
				r := tr.StartRequest("")
				got, err := s.QueryBatchContext(context.Background(), nil, probe, pred, r)
				tr.Finish(r, 200)
				if err != nil {
					t.Fatal(err)
				}
				for i, k := range probe {
					want := s.Query(k, pred)
					if len(pred) == 0 {
						want = s.QueryKey(k)
					}
					if got[i] != want {
						t.Fatalf("%v pred=%v traced=%v: key %d batch %v, point %v",
							v, pred, tr != nil, k, got[i], want)
					}
				}
			}
		}
	}
}
