package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ccf/internal/core"
	"ccf/internal/hashing"
)

func mkRows(n int) (keys []uint64, attrs [][]uint64) {
	keys = make([]uint64, n)
	attrs = make([][]uint64, n)
	for i := 0; i < n; i++ {
		keys[i] = uint64(i)*2654435761 + 17
		attrs[i] = []uint64{uint64(i % 7), uint64(i % 3)}
	}
	return keys, attrs
}

func newTest(t *testing.T, shards int, v core.Variant) *ShardedFilter {
	t.Helper()
	s, err := New(Options{
		Shards: shards,
		Params: core.Params{Variant: v, NumAttrs: 2, Capacity: 1 << 14, Seed: 42},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestNoFalseNegativesAcrossVariants(t *testing.T) {
	for _, v := range []core.Variant{core.VariantPlain, core.VariantChained, core.VariantBloom, core.VariantMixed} {
		t.Run(v.String(), func(t *testing.T) {
			s := newTest(t, 8, v)
			keys, attrs := mkRows(5000)
			for i, err := range s.InsertBatch(keys, attrs) {
				if err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			// Exact-row queries must all hit.
			for i := range keys {
				pred := core.And(core.Eq(0, attrs[i][0]), core.Eq(1, attrs[i][1]))
				if !s.Query(keys[i], pred) {
					t.Fatalf("false negative for key %d", keys[i])
				}
			}
			res := s.QueryBatch(keys, nil)
			for i, ok := range res {
				if !ok {
					t.Fatalf("batch false negative for key %d", keys[i])
				}
			}
			if got := s.Rows(); got != len(keys) {
				t.Fatalf("Rows = %d, want %d", got, len(keys))
			}
		})
	}
}

func TestBatchMatchesSingleCalls(t *testing.T) {
	s := newTest(t, 4, core.VariantChained)
	keys, attrs := mkRows(3000)
	s.InsertBatch(keys, attrs)
	probe := make([]uint64, 0, 6000)
	probe = append(probe, keys...)
	for i := 0; i < 3000; i++ {
		probe = append(probe, uint64(i)*7919+1e12)
	}
	pred := core.And(core.Eq(0, 3))
	batch := s.QueryBatch(probe, pred)
	for i, k := range probe {
		if got := s.Query(k, pred); got != batch[i] {
			t.Fatalf("key %d: single=%v batch=%v", k, got, batch[i])
		}
	}
}

func TestInsertBatchShapeError(t *testing.T) {
	s := newTest(t, 2, core.VariantChained)
	errs := s.InsertBatch([]uint64{1, 2}, [][]uint64{{0, 0}})
	if len(errs) != 1 || !errors.Is(errs[0], ErrBatchShape) {
		t.Fatalf("got %v, want [ErrBatchShape]", errs)
	}
}

func TestShardingSpreadsKeys(t *testing.T) {
	s := newTest(t, 8, core.VariantChained)
	keys, attrs := mkRows(8000)
	s.InsertBatch(keys, attrs)
	st := s.Stats()
	if st.Shards != 8 {
		t.Fatalf("Shards = %d", st.Shards)
	}
	for i, load := range st.ShardLoads {
		if load == 0 {
			t.Fatalf("shard %d received no keys", i)
		}
	}
}

// TestRouterMatchesKey64 pins the routing function every snapshot,
// checkpoint and WAL record was written under: router.group and
// router.shardOf send key k to hashing.Key64(k, seed^saltShard) % n, for
// power-of-two and other shard counts alike, and group lists each
// shard's keys in input order. One scratch serves every count, so the
// buffers are reused across sizes.
func TestRouterMatchesKey64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 3000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	keys[0], keys[1], keys[2] = 0, 1, math.MaxUint64
	var sc batchScratch
	for _, seed := range []uint64{0, 42, saltShard, 1<<63 | 5} {
		for _, n := range []int{1, 2, 3, 4, 5, 8, 16, 17} {
			rt := newRouter(seed, n)
			order, start := rt.group(keys, &sc)
			if len(order) != len(keys) || len(start) != n+1 || start[0] != 0 || int(start[n]) != len(keys) {
				t.Fatalf("seed %#x n=%d: %d order entries, start %v", seed, n, len(order), start)
			}
			seen := make([]bool, len(keys))
			for sh := 0; sh < n; sh++ {
				prev := int32(-1)
				for _, i := range order[start[sh]:start[sh+1]] {
					if i <= prev || seen[i] {
						t.Fatalf("seed %#x n=%d: shard %d lists key %d out of order or twice", seed, n, sh, i)
					}
					prev, seen[i] = i, true
					want := int(hashing.Key64(keys[i], seed^saltShard) % uint64(n))
					if sh != want || rt.shardOf(keys[i]) != want {
						t.Fatalf("seed %#x n=%d: key %#x grouped to %d, shardOf %d, want %d",
							seed, n, keys[i], sh, rt.shardOf(keys[i]), want)
					}
				}
			}
		}
	}
}

// TestNewRejectsTooManyShards: New allocates every shard before it holds a
// row, so a count past maxShards is refused up front instead of sizing the
// process out of memory.
func TestNewRejectsTooManyShards(t *testing.T) {
	p := core.Params{NumAttrs: 1, Capacity: 1024}
	for _, n := range []int{-1, maxShards + 1, 100_000_000} {
		if s, err := New(Options{Shards: n, Params: p}); err == nil {
			t.Fatalf("New(Shards: %d) built %d shards, want an error", n, s.Shards())
		}
	}
	s, err := New(Options{Shards: maxShards, Params: p})
	if err != nil || s.Shards() != maxShards {
		t.Fatalf("New(Shards: %d): err %v", maxShards, err)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := newTest(t, 4, core.VariantChained)
	keys, attrs := mkRows(2000)
	s.InsertBatch(keys, attrs)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	// Restore into a same-shape filter.
	dst := newTest(t, 4, core.VariantChained)
	if err := dst.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for i, ok := range dst.QueryBatch(keys, nil) {
		if !ok {
			t.Fatalf("restored filter lost key %d", keys[i])
		}
	}
	if dst.Rows() != s.Rows() {
		t.Fatalf("rows: restored %d, want %d", dst.Rows(), s.Rows())
	}

	// A snapshot that would change the routing or the predicate arity is
	// refused, and the filter keeps its parameters and answers.
	pred := core.And(core.Eq(0, 3))
	params, answers := dst.Params(), dst.QueryBatch(keys, pred)
	for _, tc := range []struct {
		name   string
		shards int
		p      core.Params
	}{
		{"shard count", 2, core.Params{Variant: core.VariantChained, NumAttrs: 2, Capacity: 1 << 14, Seed: 42}},
		{"seed", 4, core.Params{Variant: core.VariantChained, NumAttrs: 2, Capacity: 1 << 14, Seed: 43}},
		{"NumAttrs", 4, core.Params{Variant: core.VariantChained, NumAttrs: 1, Capacity: 1 << 14, Seed: 42}},
	} {
		other, err := New(Options{Shards: tc.shards, Params: tc.p})
		if err != nil {
			t.Fatalf("%s: New: %v", tc.name, err)
		}
		otherSnap, err := other.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", tc.name, err)
		}
		if err := dst.Restore(otherSnap); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("%s: Restore: %v, want ErrSnapshotMismatch", tc.name, err)
		}
		if got := dst.Params(); got != params {
			t.Fatalf("%s: Params after a refused Restore = %+v, want %+v", tc.name, got, params)
		}
		for i, ok := range dst.QueryBatch(keys, pred) {
			if ok != answers[i] {
				t.Fatalf("%s: key %d answers %v after a refused Restore, %v before", tc.name, keys[i], ok, answers[i])
			}
		}
	}

	// FromSnapshot rebuilds shape from the payload alone.
	fresh, err := FromSnapshot(snap)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	if fresh.Shards() != 4 {
		t.Fatalf("FromSnapshot shards = %d", fresh.Shards())
	}
	for i, ok := range fresh.QueryBatch(keys, nil) {
		if !ok {
			t.Fatalf("FromSnapshot lost key %d", keys[i])
		}
	}

	// Corrupt payloads are rejected without panicking.
	for _, bad := range [][]byte{nil, snap[:8], snap[:len(snap)-3], append(append([]byte(nil), snap...), 0)} {
		if _, err := FromSnapshot(bad); err == nil {
			t.Fatal("corrupt snapshot accepted")
		}
	}
}

// TestSnapshotHugeLengthRejected covers a crafted per-shard length near
// MaxInt64: the parser must report truncation, not overflow the offset
// arithmetic and panic on the slice bounds.
func TestSnapshotHugeLengthRejected(t *testing.T) {
	crafted := make([]byte, 32)
	binary.LittleEndian.PutUint64(crafted[0:], snapshotMagic)
	binary.LittleEndian.PutUint64(crafted[8:], 1)                   // one shard
	binary.LittleEndian.PutUint64(crafted[16:], 0x7FFFFFFFFFFFFFF7) // huge length
	if _, err := FromSnapshot(crafted); err == nil {
		t.Fatal("huge-length snapshot accepted")
	}
}

// repeatShard builds a snapshot of n copies of one single-bucket shard,
// the shape of a crafted snapshot asking for more shards than New allows.
func repeatShard(t *testing.T, n int) []byte {
	t.Helper()
	s, err := New(Options{Params: core.Params{NumAttrs: 1, Buckets: 1, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	one, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	out := binary.LittleEndian.AppendUint64(nil, snapshotMagic)
	out = binary.LittleEndian.AppendUint64(out, uint64(n))
	for i := 0; i < n; i++ {
		out = append(out, one[16:]...) // the shard's length prefix and payload
	}
	return out
}

// TestSnapshotShardBound: a snapshot shares New's shard bound, so
// FromSnapshot (and with it the restore route and store recovery) cannot
// build a filter a create would refuse.
func TestSnapshotShardBound(t *testing.T) {
	if s, err := FromSnapshot(repeatShard(t, maxShards+1)); err == nil {
		t.Fatalf("snapshot of %d shards built %d shards, want an error", maxShards+1, s.Shards())
	}
	s, err := FromSnapshot(repeatShard(t, maxShards))
	if err != nil || s.Shards() != maxShards {
		t.Fatalf("snapshot of %d shards: err %v", maxShards, err)
	}
}

// TestSnapshotMixedShardsRejected: a batch routes by one seed and
// validates its predicate against one NumAttrs, so every shard of a
// snapshot must share shard 0's. A snapshot spliced from two filters is
// refused by FromSnapshot and Restore, and the filter keeps its rows.
func TestSnapshotMixedShardsRejected(t *testing.T) {
	s := newTest(t, 2, core.VariantChained)
	keys, attrs := mkRows(500)
	s.InsertBatch(keys, attrs)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	own, err := parseSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.Params{
		{Variant: core.VariantChained, NumAttrs: 1, Capacity: 1 << 14, Seed: 42},
		{Variant: core.VariantChained, NumAttrs: 2, Capacity: 1 << 14, Seed: 43},
	} {
		other, err := New(Options{Shards: 2, Params: p})
		if err != nil {
			t.Fatal(err)
		}
		otherSnap, err := other.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		theirs, err := parseSnapshot(otherSnap)
		if err != nil {
			t.Fatal(err)
		}
		mixed := binary.LittleEndian.AppendUint64(nil, snapshotMagic)
		mixed = binary.LittleEndian.AppendUint64(mixed, 2)
		for _, part := range [][]byte{own[0], theirs[1]} {
			mixed = binary.LittleEndian.AppendUint64(mixed, uint64(len(part)))
			mixed = append(mixed, part...)
		}
		if _, err := FromSnapshot(mixed); err == nil {
			t.Fatalf("FromSnapshot accepted shard 1 with seed %d and %d attributes", p.Seed, p.NumAttrs)
		}
		if err := s.Restore(mixed); err == nil {
			t.Fatalf("Restore accepted shard 1 with seed %d and %d attributes", p.Seed, p.NumAttrs)
		}
	}
	for i, ok := range s.QueryBatch(keys, nil) {
		if !ok {
			t.Fatalf("filter lost key %d after a refused restore", keys[i])
		}
	}
}

// TestConcurrentRestore races Restore against readers, writers and
// Params under -race: each shard's ladder is swapped under its write lock
// while batches are in flight.
func TestConcurrentRestore(t *testing.T) {
	s := newTest(t, 4, core.VariantChained)
	keys, attrs := mkRows(1000)
	s.InsertBatch(keys, attrs)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				if err := s.Restore(snap); err != nil {
					t.Errorf("Restore: %v", err)
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pred := core.And(core.Eq(0, uint64(g%7)))
			for it := 0; it < 30; it++ {
				s.QueryBatch(keys[:200], pred)
				s.Params()
				s.InsertBatch(keys[200:210], attrs[200:210])
				s.Stats()
			}
		}(g)
	}
	wg.Wait()
	// The snapshot's rows survive every interleaving.
	for i, ok := range s.QueryBatch(keys, nil) {
		if !ok {
			t.Fatalf("key %d lost across concurrent restores", keys[i])
		}
	}
}

// TestConcurrentBatchOps is the -race exercise required for the sharded
// filter: concurrent batch inserts, batch queries, point ops, stats and
// snapshots.
func TestConcurrentBatchOps(t *testing.T) {
	s, err := New(Options{
		Shards: 8,
		Params: core.Params{Variant: core.VariantChained, NumAttrs: 2, Capacity: 1 << 16, Seed: 7},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const (
		writers = 4
		readers = 4
		perG    = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := make([]uint64, perG)
			attrs := make([][]uint64, perG)
			for i := range keys {
				keys[i] = uint64(w*perG+i) * 11400714819323198485
				attrs[i] = []uint64{uint64(i % 5), uint64(i % 2)}
			}
			for chunk := 0; chunk < perG; chunk += 100 {
				s.InsertBatch(keys[chunk:chunk+100], attrs[chunk:chunk+100])
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			keys := make([]uint64, 256)
			for i := range keys {
				keys[i] = uint64(r*256+i) * 11400714819323198485
			}
			pred := core.And(core.Eq(0, uint64(r%5)))
			for it := 0; it < 20; it++ {
				s.QueryBatch(keys, pred)
				s.Query(keys[it%len(keys)], nil)
				s.QueryKey(keys[(it*7)%len(keys)])
				if it%7 == 0 {
					if _, err := s.Snapshot(); err != nil {
						t.Errorf("Snapshot: %v", err)
					}
				}
				s.Stats()
			}
		}(r)
	}
	wg.Wait()
	// Every inserted key must be present afterwards.
	for w := 0; w < writers; w++ {
		for i := 0; i < perG; i++ {
			k := uint64(w*perG+i) * 11400714819323198485
			if !s.QueryKey(k) {
				t.Fatalf("key %d lost after concurrent run", k)
			}
		}
	}
}

// corruptFlag returns a copy of snap with flag set in the flags byte of
// the first occupied, unflagged slot of the first filter payload. A
// filter payload is the 8-byte magic "CCF1", 19 header words (bucket
// size at word 6, bucket count at word 10), the fingerprints, then one
// flags byte per slot.
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

// TestRestoreRejectsCorruptFlags: a snapshot with one flags byte no
// filter writes (a converted bit outside a Mixed group, a tombstone) is
// refused by Restore and FromSnapshot, and the restored-into filter stays
// whole. Probing such a slot with a predicate would chase a sketch the
// slot does not have.
func TestRestoreRejectsCorruptFlags(t *testing.T) {
	for _, v := range []core.Variant{core.VariantPlain, core.VariantChained, core.VariantBloom, core.VariantMixed} {
		t.Run(v.String(), func(t *testing.T) {
			s := newTest(t, 2, v)
			keys, attrs := mkRows(500)
			s.InsertBatch(keys, attrs)
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for _, flag := range []byte{1, 2} {
				bad := corruptFlag(t, snap, flag)
				if err := s.Restore(bad); err == nil {
					t.Fatalf("Restore accepted flags %#x", flag)
				}
				if _, err := FromSnapshot(bad); err == nil {
					t.Fatalf("FromSnapshot accepted flags %#x", flag)
				}
			}
			pred := core.And(core.Eq(0, 3))
			for i, ok := range s.QueryBatch(keys, pred) {
				if !ok && attrs[i][0] == 3 {
					t.Fatalf("filter lost key %d after a refused restore", keys[i])
				}
			}
		})
	}
}
