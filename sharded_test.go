package ccf_test

import (
	"testing"

	"ccf"
)

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
