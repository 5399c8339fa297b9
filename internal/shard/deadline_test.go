package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"ccf/internal/core"
)

// TestQueryBatchDeadlineMatchesUndeadlined pins the contract that a ctx
// that never fires is invisible: results match the plain batch path
// exactly, for both the single-shard fast path and the grouped path.
func TestQueryBatchDeadlineMatchesUndeadlined(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s, keys := loadedSharded(t, shards)
		pred := core.And(core.Eq(0, 3))
		batch := keys[:512]
		want := s.QueryBatchInto(nil, batch, pred)
		got, err := s.QueryBatchContext(context.Background(), nil, batch, pred, nil)
		if err != nil {
			t.Fatalf("shards=%d: unexpected error: %v", shards, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: result %d diverged under a live ctx", shards, i)
			}
		}
		wantK := s.QueryBatchInto(nil, batch, nil)
		gotK, err := s.QueryBatchContext(context.Background(), nil, batch, nil, nil)
		if err != nil {
			t.Fatalf("shards=%d: key batch: unexpected error: %v", shards, err)
		}
		for i := range wantK {
			if gotK[i] != wantK[i] {
				t.Fatalf("shards=%d: key result %d diverged under a live ctx", shards, i)
			}
		}
	}
}

// TestQueryBatchDeadlineExpired verifies the batch entry point notices an
// already-expired ctx before doing work and surfaces its error, with a
// predicate and with the empty (key-membership) one.
func TestQueryBatchDeadlineExpired(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s, keys := loadedSharded(t, shards)
		pred := core.And(core.Eq(0, 3))
		batch := keys[:512]

		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.QueryBatchContext(cancelled, nil, batch, pred, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: got %v, want context.Canceled", shards, err)
		}

		expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel2()
		if _, err := s.QueryBatchContext(expired, nil, batch, nil, nil); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("shards=%d: got %v, want context.DeadlineExceeded", shards, err)
		}
	}
}

// TestQueryBatchDeadlineZeroAlloc: threading a live context through the
// batch probe must not cost allocations — the deadline checkpoints are
// a channel poll, and the un-deadlined path is just a nil check.
func TestQueryBatchDeadlineZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	ctx := context.Background()
	for _, shards := range []int{1, 4} {
		s, keys := loadedSharded(t, shards)
		pred := core.And(core.Eq(0, 3))
		batch := keys[:1024]
		dst := make([]bool, 0, len(batch))
		dst, _ = s.QueryBatchContext(ctx, dst, batch, pred, nil) // warm scratch pool
		if n := testing.AllocsPerRun(200, func() {
			dst, _ = s.QueryBatchContext(ctx, dst[:0], batch, pred, nil)
		}); n != 0 {
			t.Errorf("shards=%d: QueryBatchContext allocates %.2f allocs/op, want 0", shards, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			dst, _ = s.QueryBatchContext(ctx, dst[:0], batch, nil, nil)
		}); n != 0 {
			t.Errorf("shards=%d: empty-predicate QueryBatchContext allocates %.2f allocs/op, want 0", shards, n)
		}
	}
}
