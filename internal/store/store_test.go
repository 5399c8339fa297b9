package store

import (
	"path/filepath"
	"testing"
	"time"

	"ccf/internal/core"
	"ccf/internal/shard"
)

func testParams(variant core.Variant) core.Params {
	return core.Params{Variant: variant, NumAttrs: 2, Capacity: 8192, Seed: 7}
}

func testShardOpts(variant core.Variant) shard.Options {
	return shard.Options{Shards: 4, Params: testParams(variant)}
}

func newFilter(t *testing.T, variant core.Variant) *shard.ShardedFilter {
	return newFilterWith(t, testShardOpts(variant))
}

func newFilterWith(t *testing.T, opts shard.Options) *shard.ShardedFilter {
	t.Helper()
	sf, err := shard.New(opts)
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	return sf
}

// tinyShardOpts keeps torture-test snapshots small so crash sweeps that
// reopen the store hundreds of times stay fast.
func tinyShardOpts() shard.Options {
	return shard.Options{Shards: 2,
		Params: core.Params{Variant: core.VariantChained, NumAttrs: 2, Capacity: 512, Seed: 7}}
}

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	opts.Dir = dir
	st, err := Open(opts)
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return st
}

// op is one recorded mutation, replayable against a reference filter.
type op struct {
	del   bool
	key   uint64
	attrs []uint64
}

func applyOps(t *testing.T, apply func(o op) error, ops []op) {
	t.Helper()
	for _, o := range ops {
		if err := apply(o); err != nil {
			t.Fatalf("apply %+v: %v", o, err)
		}
	}
}

func makeOps(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{key: uint64(i)*2654435761 + 1, attrs: []uint64{uint64(i % 8), uint64(i % 5)}}
	}
	return ops
}

// referenceFor rebuilds the expected filter state by applying the first k
// ops to a fresh filter with identical parameters.
func referenceFor(t *testing.T, variant core.Variant, ops []op, k int) *shard.ShardedFilter {
	return referenceWith(t, testShardOpts(variant), ops, k)
}

func referenceWith(t *testing.T, opts shard.Options, ops []op, k int) *shard.ShardedFilter {
	t.Helper()
	ref := newFilterWith(t, opts)
	for _, o := range ops[:k] {
		if o.del {
			ref.Delete(o.key, o.attrs)
		} else {
			ref.Insert(o.key, o.attrs)
		}
	}
	return ref
}

// assertSameAnswers fails unless got and want answer identically over the
// ops' keys plus a band of never-inserted probe keys (identical state
// implies identical false positives too).
func assertSameAnswers(t *testing.T, got, want *shard.ShardedFilter, ops []op) {
	t.Helper()
	if g, w := got.Rows(), want.Rows(); g != w {
		t.Fatalf("rows: got %d, want %d", g, w)
	}
	pred := core.And(core.Eq(0, 1))
	check := func(key uint64) {
		if g, w := got.QueryKey(key), want.QueryKey(key); g != w {
			t.Fatalf("QueryKey(%d): got %v, want %v", key, g, w)
		}
		if g, w := got.Query(key, pred), want.Query(key, pred); g != w {
			t.Fatalf("Query(%d, pred): got %v, want %v", key, g, w)
		}
	}
	for _, o := range ops {
		check(o.key)
	}
	for i := 0; i < 512; i++ {
		check(uint64(i)*7919 + 13)
	}
}

func TestDurableRoundTrip(t *testing.T) {
	for _, variant := range []core.Variant{core.VariantChained, core.VariantPlain} {
		t.Run(variant.String(), func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir, Options{Fsync: FsyncAlways})
			fl, err := st.Create("t", newFilter(t, variant))
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			ops := makeOps(300)
			if variant == core.VariantPlain {
				// Mix deletes in so recDelete replay is exercised.
				for i := 100; i < 120; i++ {
					ops = append(ops, op{del: true, key: ops[i].key, attrs: ops[i].attrs})
				}
			}
			// Batched prefix, point-op tail, so both record types appear.
			half := 200
			keys := make([]uint64, half)
			attrs := make([][]uint64, half)
			for i := 0; i < half; i++ {
				keys[i], attrs[i] = ops[i].key, ops[i].attrs
			}
			if _, err := fl.InsertBatchInto(nil, keys, attrs); err != nil {
				t.Fatalf("InsertBatchInto: %v", err)
			}
			applyOps(t, func(o op) error {
				if o.del {
					return fl.Delete(o.key, o.attrs)
				}
				return fl.Insert(o.key, o.attrs)
			}, ops[half:])
			if err := st.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			st2 := openStore(t, dir, Options{})
			defer st2.Close()
			stats := st2.RecoveryStats()
			if stats.Filters != 1 || stats.RecordsReplayed == 0 {
				t.Fatalf("recovery stats: %+v", stats)
			}
			fl2 := st2.Get("t")
			if fl2 == nil {
				t.Fatal("filter not recovered")
			}
			assertSameAnswers(t, fl2.Live(), referenceFor(t, variant, ops, len(ops)), ops)
		})
	}
}

func TestCheckpointTruncatesWALAndRecovers(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Fsync: FsyncAlways})
	fl, err := st.Create("t", newFilter(t, core.VariantChained))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	ops := makeOps(120)
	applyOps(t, func(o op) error { return fl.Insert(o.key, o.attrs) }, ops[:80])
	if err := fl.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if fl.gen != 1 || fl.ckptSeq == 0 {
		t.Fatalf("after checkpoint: gen %d seq %d", fl.gen, fl.ckptSeq)
	}
	// A second checkpoint with nothing new is a no-op.
	if err := fl.Checkpoint(); err != nil {
		t.Fatalf("idle Checkpoint: %v", err)
	}
	if fl.gen != 1 {
		t.Fatalf("idle checkpoint bumped gen to %d", fl.gen)
	}
	applyOps(t, func(o op) error { return fl.Insert(o.key, o.attrs) }, ops[80:])
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2 := openStore(t, dir, Options{})
	defer st2.Close()
	stats := st2.RecoveryStats()
	if stats.SegmentsLoaded != 1 {
		t.Fatalf("segments loaded: %+v", stats)
	}
	// Only the 40 post-checkpoint inserts replay.
	if stats.RecordsReplayed != 40 {
		t.Fatalf("records replayed = %d, want 40 (%+v)", stats.RecordsReplayed, stats)
	}
	assertSameAnswers(t, st2.Get("t").Live(), referenceFor(t, core.VariantChained, ops, len(ops)), ops)
}

func TestCheckpointThresholdTriggersInBackground(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Fsync: FsyncAlways, CheckpointRecords: 16, CheckpointBytes: -1})
	fl, err := st.Create("t", newFilter(t, core.VariantChained))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	ops := makeOps(64)
	applyOps(t, func(o op) error { return fl.Insert(o.key, o.attrs) }, ops)
	// The checkpointer runs asynchronously; wait for a manifest to land.
	deadline := 200
	for ; deadline > 0; deadline-- {
		if _, err := readManifest(fl.dir); err == nil {
			break
		}
		fl.maybeCheckpoint()
		sleepMS(5)
	}
	if deadline == 0 {
		t.Fatal("background checkpoint never produced a manifest")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2 := openStore(t, dir, Options{})
	defer st2.Close()
	if st2.RecoveryStats().SegmentsLoaded != 1 {
		t.Fatalf("stats: %+v", st2.RecoveryStats())
	}
	assertSameAnswers(t, st2.Get("t").Live(), referenceFor(t, core.VariantChained, ops, len(ops)), ops)
}

func TestDropIsDurable(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	if _, err := st.Create("keep", newFilter(t, core.VariantChained)); err != nil {
		t.Fatalf("Create keep: %v", err)
	}
	if _, err := st.Create("gone", newFilter(t, core.VariantChained)); err != nil {
		t.Fatalf("Create gone: %v", err)
	}
	if err := st.Drop("gone"); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	if err := st.Drop("never-existed"); err != nil {
		t.Fatalf("Drop unknown: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2 := openStore(t, dir, Options{})
	defer st2.Close()
	if st2.Get("gone") != nil {
		t.Fatal("dropped filter came back")
	}
	if st2.Get("keep") == nil {
		t.Fatal("kept filter lost")
	}
}

func TestCreateReplacesExisting(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	fl, err := st.Create("t", newFilter(t, core.VariantChained))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := fl.Insert(42, []uint64{1, 2}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	ops := makeOps(10)
	fl2, err := st.Create("t", newFilter(t, core.VariantChained))
	if err != nil {
		t.Fatalf("re-Create: %v", err)
	}
	applyOps(t, func(o op) error { return fl2.Insert(o.key, o.attrs) }, ops)
	if _, err := fl.InsertBatchInto(nil, []uint64{9}, [][]uint64{{0, 0}}); err != ErrClosed {
		t.Fatalf("stale handle insert: err = %v, want ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st2 := openStore(t, dir, Options{})
	defer st2.Close()
	assertSameAnswers(t, st2.Get("t").Live(), referenceFor(t, core.VariantChained, ops, len(ops)), ops)
}

func TestRestoreIsDurable(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	fl, err := st.Create("t", newFilter(t, core.VariantChained))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := fl.Insert(1, []uint64{1, 1}); err != nil {
		t.Fatalf("Insert: %v", err)
	}

	// Build a donor with different shard count and restore it in.
	donor, err := shard.New(shard.Options{Shards: 2, Params: testParams(core.VariantChained)})
	if err != nil {
		t.Fatalf("donor: %v", err)
	}
	ops := makeOps(50)
	applyOps(t, func(o op) error { return donor.Insert(o.key, o.attrs) }, ops)
	snap, err := donor.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored, err := shard.FromSnapshot(snap)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	if _, err := st.Restore("t", snap, restored); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// Restore into a name the store has never seen = durable create.
	if _, err := st.Restore("fresh", snap, restored); err != nil {
		t.Fatalf("Restore fresh: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2 := openStore(t, dir, Options{})
	defer st2.Close()
	for _, name := range []string{"t", "fresh"} {
		fl2 := st2.Get(name)
		if fl2 == nil {
			t.Fatalf("%s not recovered", name)
		}
		assertSameAnswers(t, fl2.Live(), donor, ops)
	}
}

func TestWritesAfterRecoveryArePersisted(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Fsync: FsyncAlways})
	fl, err := st.Create("t", newFilter(t, core.VariantChained))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	ops := makeOps(60)
	applyOps(t, func(o op) error { return fl.Insert(o.key, o.attrs) }, ops[:20])
	st.Close()

	st2 := openStore(t, dir, Options{Fsync: FsyncAlways})
	fl2 := st2.Get("t")
	applyOps(t, func(o op) error { return fl2.Insert(o.key, o.attrs) }, ops[20:40])
	if err := fl2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	applyOps(t, func(o op) error { return fl2.Insert(o.key, o.attrs) }, ops[40:])
	st2.Close()

	st3 := openStore(t, dir, Options{})
	defer st3.Close()
	assertSameAnswers(t, st3.Get("t").Live(), referenceFor(t, core.VariantChained, ops, len(ops)), ops)
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir, Options{Fsync: policy})
			fl, err := st.Create("t", newFilter(t, core.VariantChained))
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			ops := makeOps(40)
			applyOps(t, func(o op) error { return fl.Insert(o.key, o.attrs) }, ops)
			if err := st.Close(); err != nil { // Close flushes+fsyncs for every policy
				t.Fatalf("Close: %v", err)
			}
			st2 := openStore(t, dir, Options{})
			defer st2.Close()
			assertSameAnswers(t, st2.Get("t").Live(), referenceFor(t, core.VariantChained, ops, len(ops)), ops)
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"interval", FsyncInterval, true},
		{"", FsyncInterval, true},
		{"never", FsyncNever, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseFsyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestFilterDirNameIsSafe(t *testing.T) {
	for _, name := range []string{"jobs", "..", "a/b", "a b", "ü", ".", ""} {
		dir := filterDirName(name)
		if filepath.Base(dir) != dir || dir == "." || dir == ".." {
			t.Errorf("filterDirName(%q) = %q escapes its directory", name, dir)
		}
		back, ok := filterNameFromDir(dir)
		if !ok || back != name {
			t.Errorf("round trip %q -> %q -> %q, %v", name, dir, back, ok)
		}
	}
}

func sleepMS(ms int) { time.Sleep(time.Duration(ms) * time.Millisecond) }
