package ccf_test

import (
	"sync"
	"testing"

	"ccf"
)

// TestSyncFilterConcurrentFullSurface exercises SyncFilter's full
// surface from concurrent goroutines; run with -race. Unlike the basic
// insert/query interleave in ccf_test.go, readers here also extract
// predicate key-views (Algorithm 2) and marshal mid-write.
func TestSyncFilterConcurrentFullSurface(t *testing.T) {
	sf, err := ccf.NewSync(ccf.Params{NumAttrs: 2, Capacity: 1 << 15, Seed: 11})
	if err != nil {
		t.Fatalf("NewSync: %v", err)
	}
	const (
		writers = 4
		readers = 4
		perG    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := uint64(w*perG+i)*11400714819323198485 + 1
				if err := sf.Insert(k, []uint64{uint64(i % 6), uint64(i % 4)}); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			pred := ccf.And(ccf.Eq(0, uint64(r%6)))
			for i := 0; i < perG; i++ {
				k := uint64(r*perG+i)*11400714819323198485 + 1
				sf.Query(k, pred)
				sf.QueryKey(k)
				if i%100 == 0 {
					if _, err := sf.PredicateFilter(pred); err != nil {
						t.Errorf("PredicateFilter: %v", err)
						return
					}
					if _, err := sf.MarshalBinary(); err != nil {
						t.Errorf("MarshalBinary: %v", err)
						return
					}
					sf.LoadFactor()
					sf.SizeBits()
					sf.Rows()
				}
			}
		}(r)
	}
	wg.Wait()

	if got, want := sf.Rows(), writers*perG; got != want {
		t.Fatalf("Rows = %d, want %d", got, want)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perG; i++ {
			k := uint64(w*perG+i)*11400714819323198485 + 1
			if !sf.QueryKey(k) {
				t.Fatalf("key %d lost after concurrent run", k)
			}
		}
	}

	// The filter still round-trips after concurrent mutation.
	data, err := sf.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	restored, err := ccf.NewSync(ccf.Params{NumAttrs: 2})
	if err != nil {
		t.Fatalf("NewSync: %v", err)
	}
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if restored.Rows() != sf.Rows() {
		t.Fatalf("restored rows = %d, want %d", restored.Rows(), sf.Rows())
	}
}

// TestNewShardedPublicAPI sanity-checks the root-package sharded surface.
func TestNewShardedPublicAPI(t *testing.T) {
	s, err := ccf.NewSharded(ccf.ShardOptions{
		Shards: 4,
		Params: ccf.Params{NumAttrs: 1, Capacity: 1 << 12},
	})
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	keys := []uint64{1, 2, 3}
	attrs := [][]uint64{{9}, {8}, {9}}
	for i, err := range s.InsertBatch(keys, attrs) {
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	got := s.QueryBatch([]uint64{1, 2, 3, 4}, ccf.And(ccf.Eq(0, 9)))
	if !got[0] || !got[2] {
		t.Fatalf("QueryBatch = %v", got)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored, err := ccf.ShardedFromSnapshot(snap)
	if err != nil || restored.Rows() != 3 {
		t.Fatalf("ShardedFromSnapshot: %v, rows=%d", err, restored.Rows())
	}
}
