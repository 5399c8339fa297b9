package store

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"ccf/internal/core"
	"ccf/internal/shard"
)

func growOpts(capacity int) shard.Options {
	return shard.Options{
		Shards:   2,
		AutoGrow: core.LadderOptions{MaxLevels: 6},
		Params:   core.Params{Variant: core.VariantChained, NumAttrs: 2, Capacity: capacity, Seed: 7},
	}
}

func growRows(n int) ([]uint64, [][]uint64) {
	keys := make([]uint64, n)
	attrs := make([][]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)*2654435761 + 3
		attrs[i] = []uint64{uint64(i % 7), uint64(i % 3)}
	}
	return keys, attrs
}

func insertAll(t *testing.T, fl *Filter, keys []uint64, attrs [][]uint64) {
	t.Helper()
	const batch = 512
	for lo := 0; lo < len(keys); lo += batch {
		end := min(lo+batch, len(keys))
		errs, err := fl.InsertBatchInto(nil, keys[lo:end], attrs[lo:end])
		if err != nil {
			t.Fatalf("insert batch at %d: %v", lo, err)
		}
		for i, e := range errs {
			if e != nil {
				t.Fatalf("row %d: %v", lo+i, e)
			}
		}
	}
}

func checkAllPresent(t *testing.T, sf *shard.ShardedFilter, keys []uint64) {
	t.Helper()
	out := sf.QueryBatchInto(nil, keys, nil)
	for i := range out {
		if !out[i] {
			t.Fatalf("false negative for key %d", keys[i])
		}
	}
}

// TestFoldCollapsesLadder drives a filter through growth, folds it, and
// checks the collapsed filter (a) answers everything, (b) is one level,
// (c) recovers as folded after a restart, and (d) can grow and fold
// again — the steady-state lifecycle of an elastic filter.
func TestFoldCollapsesLadder(t *testing.T) {
	const n = 1024
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	sf := newFilterWith(t, growOpts(n))
	fl, err := st.Create("elastic", sf)
	if err != nil {
		t.Fatal(err)
	}
	keys, attrs := growRows(4 * n)
	insertAll(t, fl, keys, attrs)
	if lv := fl.Live().Stats().MaxLevels; lv < 2 {
		t.Fatalf("expected growth before fold, levels %d", lv)
	}

	if err := fl.Fold(); err != nil {
		t.Fatalf("Fold: %v", err)
	}
	if got := fl.FoldCount(); got != 1 {
		t.Fatalf("FoldCount = %d, want 1", got)
	}
	st1 := fl.Live().Stats()
	if st1.MaxLevels != 1 {
		t.Fatalf("post-fold levels = %d, want 1", st1.MaxLevels)
	}
	if st1.Rows != 4*n {
		t.Fatalf("post-fold rows = %d, want %d", st1.Rows, 4*n)
	}
	checkAllPresent(t, fl.Live(), keys)

	// Recovery reproduces the folded structure (the Fold record carries
	// the collapsed snapshot).
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openStore(t, dir, Options{})
	fl = st.Get("elastic")
	if fl == nil {
		t.Fatal("filter missing after reopen")
	}
	rst := fl.Live().Stats()
	if rst.MaxLevels != 1 || rst.Rows != 4*n {
		t.Fatalf("recovered: levels %d rows %d, want 1/%d", rst.MaxLevels, rst.Rows, 4*n)
	}
	checkAllPresent(t, fl.Live(), keys)

	// Grow again past the folded sizing and fold again: the second fold
	// replays the whole organic history and must skip the first fold's
	// snapshot record.
	keys2, attrs2 := growRows(12 * n)
	insertAll(t, fl, keys2[4*n:], attrs2[4*n:])
	if lv := fl.Live().Stats().MaxLevels; lv < 2 {
		t.Fatalf("expected second growth, levels %d", lv)
	}
	if err := fl.Fold(); err != nil {
		t.Fatalf("second Fold: %v", err)
	}
	st2 := fl.Live().Stats()
	if st2.MaxLevels != 1 || st2.Rows != 12*n {
		t.Fatalf("second fold: levels %d rows %d, want 1/%d", st2.MaxLevels, st2.Rows, 12*n)
	}
	checkAllPresent(t, fl.Live(), keys2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFoldSurvivesCheckpoint pins the retention contract: checkpoints on
// a fold-capable filter must keep the WAL history a later fold needs.
func TestFoldSurvivesCheckpoint(t *testing.T) {
	const n = 1024
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	sf := newFilterWith(t, growOpts(n))
	fl, err := st.Create("ckpt", sf)
	if err != nil {
		t.Fatal(err)
	}
	keys, attrs := growRows(4 * n)
	half := len(keys) / 2
	insertAll(t, fl, keys[:half], attrs[:half])
	if err := fl.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	insertAll(t, fl, keys[half:], attrs[half:])
	if err := fl.Checkpoint(); err != nil {
		t.Fatalf("second checkpoint: %v", err)
	}
	if err := fl.Fold(); err != nil {
		t.Fatalf("Fold after checkpoints: %v", err)
	}
	if lv := fl.Live().Stats().MaxLevels; lv != 1 {
		t.Fatalf("post-fold levels = %d, want 1", lv)
	}
	checkAllPresent(t, fl.Live(), keys)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFoldUnderTraffic races folds against readers and a durable writer.
// A fold's Restore swaps shards while readers probe them, and its
// catch-up replay must see every row acked before the swap: the barrier
// it holds for writing until the swap is done keeps writers out. No
// stable key may ever miss, and every acked row answers afterwards.
func TestFoldUnderTraffic(t *testing.T) {
	const (
		nStable    = 2048
		folds      = 6
		maxBatches = 300 // each fold replays all history; bound it
		batch      = 64
	)
	st := openStore(t, t.TempDir(), Options{Fsync: FsyncNever})
	defer st.Close()
	opts := growOpts(1024)
	opts.Shards = 4
	fl, err := st.Create("traffic", newFilterWith(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	stable, stAttrs := growRows(nStable)
	insertAll(t, fl, stable, stAttrs)
	anyAttr0 := core.And(core.In(0, 0, 1, 2, 3, 4, 5, 6)) // growRows' attribute 0 is i % 7

	stop := make(chan struct{})
	var misses atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var out []bool
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := (i * 256) % (nStable - 256)
				pred := core.Predicate(nil)
				if i%2 == 1 {
					pred = anyAttr0
				}
				out = fl.Live().QueryBatchInto(out[:0], stable[lo:lo+256], pred)
				for _, ok := range out {
					if !ok {
						misses.Add(1)
					}
				}
			}
		}(r)
	}
	var acked []uint64
	var ackedAttrs [][]uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		keys, attrs := make([]uint64, batch), make([][]uint64, batch)
		for b := 0; b < maxBatches; b++ {
			select {
			case <-stop:
				return
			default:
			}
			for i := range keys {
				n := uint64(b*batch + i)
				keys[i] = n*0x9E3779B97F4A7C15 + 1
				attrs[i] = []uint64{n % 5, n % 2}
			}
			errs, err := fl.InsertBatchInto(nil, keys, attrs)
			if err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
			for i, e := range errs {
				if e != nil {
					t.Errorf("batch %d row %d: %v", b, i, e)
					return
				}
			}
			acked = append(acked, keys...)
			ackedAttrs = append(ackedAttrs, attrs...)
		}
	}()

	for i := 0; i < folds; i++ {
		if err := fl.Grow(i % opts.Shards); err != nil {
			t.Errorf("Grow: %v", err)
			break
		}
		if err := fl.Fold(); err != nil {
			t.Errorf("Fold %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := fl.FoldCount(); got != folds {
		t.Fatalf("FoldCount = %d, want %d", got, folds)
	}
	if n := misses.Load(); n != 0 {
		t.Fatalf("%d stable-key probes missed during folds", n)
	}
	checkAllPresent(t, fl.Live(), stable)
	checkAllPresent(t, fl.Live(), acked)
	for i, k := range acked {
		if !fl.Live().Query(k, core.And(core.Eq(0, ackedAttrs[i][0]))) {
			t.Fatalf("acked row %d (key %d) misses its attribute after %d folds", i, k, folds)
		}
	}
}

// TestGrowRecordReplay checks that explicit (policy-driven) grows are
// WAL records and recovery reproduces the exact per-shard level
// structure they created.
func TestGrowRecordReplay(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	sf := newFilterWith(t, growOpts(2048))
	fl, err := st.Create("grown", sf)
	if err != nil {
		t.Fatal(err)
	}
	keys, attrs := growRows(512)
	insertAll(t, fl, keys[:256], attrs[:256])
	if err := fl.Grow(0); err != nil {
		t.Fatalf("Grow(0): %v", err)
	}
	insertAll(t, fl, keys[256:], attrs[256:])
	if err := fl.Grow(0); err != nil {
		t.Fatalf("second Grow(0): %v", err)
	}
	if err := fl.Grow(1); err != nil {
		t.Fatalf("Grow(1): %v", err)
	}
	want := fl.Live().Stats()
	if want.ShardDetail[0].Levels != 3 || want.ShardDetail[1].Levels != 2 {
		t.Fatalf("levels = %d,%d; want 3,2",
			want.ShardDetail[0].Levels, want.ShardDetail[1].Levels)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openStore(t, dir, Options{})
	defer st.Close()
	fl = st.Get("grown")
	if fl == nil {
		t.Fatal("filter missing after reopen")
	}
	got := fl.Live().Stats()
	if got.ShardDetail[0].Levels != 3 || got.ShardDetail[1].Levels != 2 {
		t.Fatalf("recovered levels = %d,%d; want 3,2",
			got.ShardDetail[0].Levels, got.ShardDetail[1].Levels)
	}
	for i, d := range got.ShardDetail {
		for j, lv := range d.PerLevel {
			if lv.Buckets != want.ShardDetail[i].PerLevel[j].Buckets {
				t.Fatalf("shard %d level %d buckets %d, want %d",
					i, j, lv.Buckets, want.ShardDetail[i].PerLevel[j].Buckets)
			}
		}
	}
	checkAllPresent(t, fl.Live(), keys)
}

// TestFoldUnavailableForPrebuilt: a filter restored from a non-empty
// snapshot carries rows that exist only as fingerprints; fold must
// refuse rather than silently drop them.
func TestFoldUnavailableForPrebuilt(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	defer st.Close()

	src := newFilterWith(t, growOpts(1024))
	keys, attrs := growRows(256)
	for i := range keys {
		if err := src.Insert(keys[i], attrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fl, err := st.Restore("prebuilt", snap, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.Fold(); !errors.Is(err, ErrFoldUnavailable) {
		t.Fatalf("Fold of prebuilt filter: %v, want ErrFoldUnavailable", err)
	}
}
