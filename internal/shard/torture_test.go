package shard

import (
	"sync"
	"sync/atomic"
	"testing"

	"ccf/internal/core"
)

// TestReadWriteTorture hammers the read path from many goroutines against
// concurrent Insert/Delete/Restore (and Stats/Snapshot, which read under
// the same shard locks) and asserts the filter's one hard guarantee — no
// false negatives for rows that are present in every state the filter
// passes through. Run under -race it is the memory-model check for the
// shard locks, Restore's per-shard swap included.
func TestReadWriteTorture(t *testing.T) {
	s, err := New(Options{
		Shards: 4,
		Params: core.Params{Variant: core.VariantPlain, NumAttrs: 1, Capacity: 1 << 15, Seed: 21},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Stable keys live in the filter before the torture starts and are in
	// the Restore snapshot, so they are present in every state the filter
	// passes through: a reader must never miss one.
	const nStable = 1 << 12
	stable := make([]uint64, nStable)
	stAttrs := make([][]uint64, nStable)
	for i := range stable {
		stable[i] = uint64(i)*2654435761 + 17
		stAttrs[i] = []uint64{uint64(i % 7)}
	}
	for _, err := range s.InsertBatch(stable, stAttrs) {
		if err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	iters := 400
	if testing.Short() {
		iters = 50
	}

	var wrong atomic.Int64
	var wg, writerWg sync.WaitGroup

	// Writers: churn a volatile key range (insert then delete, Plain
	// supports deletion) so bucket words are torn mid-probe as often as
	// possible. They run until the readers finish (their own WaitGroup, or
	// stopping them would wait on ourselves). The volatile attribute value
	// (9) is disjoint from every stable one (0–6): Plain deletion removes
	// any entry matching (κ, α), so a shared attribute fingerprint would
	// let a delete alias away a stable row — a property of cuckoo
	// deletion, not a read-path race.
	stopWriters := make(chan struct{})
	for w := 0; w < 2; w++ {
		w := w
		writerWg.Add(1)
		go func() {
			defer writerWg.Done()
			attrs := []uint64{9}
			k := uint64(1<<40) + uint64(w)<<32
			for {
				select {
				case <-stopWriters:
					return
				default:
				}
				for j := 0; j < 64; j++ {
					s.Insert(k+uint64(j), attrs)
				}
				for j := 0; j < 64; j++ {
					s.Delete(k+uint64(j), attrs)
				}
				k += 64
			}
		}()
	}

	// Restorer: periodically swap the whole contents (same stable keys) so
	// readers race Restore's per-shard swap, not just in-place mutation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			if err := s.Restore(snap); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Monitors: Stats and Snapshot read under the same shard locks and
	// must not wedge or crash while writers churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			if st := s.Stats(); st.Shards != 4 {
				t.Errorf("stats: got %d shards", st.Shards)
				return
			}
			if _, err := s.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Readers: batched probes over the stable keys, point probes mixed in.
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]bool, 0, 256)
			for i := 0; i < iters; i++ {
				lo := (i * 256 * (r + 1)) % (nStable - 256)
				batch := stable[lo : lo+256]
				out = s.QueryBatchInto(out[:0], batch, nil)
				for j := range out {
					if !out[j] {
						wrong.Add(1)
					}
				}
				if !s.QueryKey(stable[lo]) {
					wrong.Add(1)
				}
			}
		}()
	}

	// Stop writers only after readers and the restorer are done, so reads
	// race mutation for the whole run.
	wg.Wait()
	close(stopWriters)
	writerWg.Wait()

	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d false negatives on always-present keys", n)
	}
}

// TestSketchedVariantsReadLocked: Bloom and Mixed probes chase arena
// pointers into per-group sketches; through the shard read lock, the
// batch probe must answer exactly what point queries answer.
func TestSketchedVariantsReadLocked(t *testing.T) {
	for _, v := range []core.Variant{core.VariantBloom, core.VariantMixed} {
		s, err := New(Options{
			Shards: 2,
			Params: core.Params{Variant: v, NumAttrs: 2, Capacity: 1 << 12, BloomBits: 24, Seed: 31},
		})
		if err != nil {
			t.Fatal(err)
		}
		keys, attrs := mkRows(1 << 9)
		for _, err := range s.InsertBatch(keys, attrs) {
			if err != nil {
				t.Fatal(err)
			}
		}
		out := s.QueryBatch(keys, core.And(core.Eq(0, 1)))
		for i := range out {
			if want := s.Query(keys[i], core.And(core.Eq(0, 1))); out[i] != want {
				t.Fatalf("%s key[%d]: batch=%v point=%v", v, i, out[i], want)
			}
		}
	}
}
