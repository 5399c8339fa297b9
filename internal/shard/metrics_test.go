package shard

import (
	"testing"

	"ccf/internal/core"
)

// The seqlock counters are asserted deterministically by driving
// mutations into the torn-read window through seqlockProbeHook, the same
// lever TestSeqlockTornReadRetries uses — randomized hammering can prove
// the counters move, but not by how much.

func metricsFilter(t *testing.T) *ShardedFilter {
	t.Helper()
	s, err := New(Options{
		Shards: 1, Workers: 1,
		Params: core.Params{Variant: core.VariantPlain, NumAttrs: 1, Capacity: 1 << 12, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSeqlockRetryCounter(t *testing.T) {
	if raceEnabled {
		t.Skip("the optimistic read path is compiled out under -race")
	}
	s := metricsFilter(t)
	if err := s.Insert(1, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	fired := 0
	seqlockProbeHook = func() {
		if fired > 0 {
			return // one torn read; the retry must then succeed
		}
		fired++
		if err := s.Insert(uint64(1000), []uint64{2}); err != nil {
			t.Error(err)
		}
	}
	defer func() { seqlockProbeHook = nil }()
	if !s.QueryKey(1) {
		t.Fatal("present key not found")
	}
	if got := s.Metrics().SeqlockRetries.Value(); got != 1 {
		t.Errorf("SeqlockRetries = %d, want 1", got)
	}
	if got := s.Metrics().SeqlockFallbacks.Value(); got != 0 {
		t.Errorf("SeqlockFallbacks = %d, want 0 (second try should succeed)", got)
	}
}

func TestSeqlockFallbackCounter(t *testing.T) {
	if raceEnabled {
		t.Skip("the optimistic read path is compiled out under -race")
	}
	s := metricsFilter(t)
	if err := s.Insert(1, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	next := uint64(2000)
	seqlockProbeHook = func() {
		// Mutate on every optimistic try: all tries fail their version
		// recheck and the read must fall back to the lock.
		next++
		if err := s.Insert(next, []uint64{2}); err != nil {
			t.Error(err)
		}
	}
	defer func() { seqlockProbeHook = nil }()
	if !s.QueryKey(1) {
		t.Fatal("present key not found under fallback")
	}
	if got := s.Metrics().SeqlockRetries.Value(); got != optimisticReadTries {
		t.Errorf("SeqlockRetries = %d, want %d (every try discarded)", got, optimisticReadTries)
	}
	if got := s.Metrics().SeqlockFallbacks.Value(); got != 1 {
		t.Errorf("SeqlockFallbacks = %d, want 1", got)
	}
}

func TestPessimisticReadsCountFallbacks(t *testing.T) {
	s := metricsFilter(t)
	s.SetPessimisticReads(true)
	if err := s.Insert(1, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.QueryKey(1)
	}
	if got := s.Metrics().SeqlockFallbacks.Value(); got != 3 {
		t.Errorf("SeqlockFallbacks = %d, want 3 (one per pessimistic read)", got)
	}
	if got := s.Metrics().SeqlockRetries.Value(); got != 0 {
		t.Errorf("SeqlockRetries = %d, want 0", got)
	}
}

// TestInstrumentedFallbackPathZeroAlloc extends the alloc_test.go guards
// to the read path that actually touches a metric: pessimistic reads
// increment SeqlockFallbacks once per shard group, and must still
// allocate nothing in steady state. (The optimistic success path touches
// no counter at all, and the regular guards already run against the
// instrumented build since the handles are always on.)
func TestInstrumentedFallbackPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	s, keys := loadedSharded(t, 4)
	s.SetPessimisticReads(true)
	batch := keys[:1024]
	dst := make([]bool, 0, len(batch))
	dst = s.QueryBatchInto(dst, batch, nil) // warm the grouping scratch pool
	before := s.Metrics().SeqlockFallbacks.Value()
	if n := testing.AllocsPerRun(200, func() {
		dst = s.QueryBatchInto(dst[:0], batch, nil)
	}); n != 0 {
		t.Errorf("instrumented fallback path allocates %.2f allocs/op, want 0", n)
	}
	if after := s.Metrics().SeqlockFallbacks.Value(); after <= before {
		t.Errorf("SeqlockFallbacks did not advance (%d -> %d); the guard is not exercising the counter", before, after)
	}
}

func TestGrowShardCountsGrows(t *testing.T) {
	s, err := New(Options{
		Shards: 2, Workers: 1,
		AutoGrow: core.LadderOptions{MaxLevels: 4},
		Params:   core.Params{Variant: core.VariantPlain, NumAttrs: 1, Capacity: 1 << 10, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.GrowShard(0); err != nil {
		t.Fatal(err)
	}
	if err := s.GrowShard(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Grows.Value(); got != 2 {
		t.Errorf("Grows = %d, want 2", got)
	}
	if err := s.GrowShard(99); err == nil {
		t.Fatal("grow of invalid shard succeeded")
	}
	if got := s.Metrics().Grows.Value(); got != 2 {
		t.Errorf("Grows = %d after failed grow, want 2", got)
	}
}
