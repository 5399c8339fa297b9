package shard

import (
	"testing"

	"ccf/internal/core"
)

func TestGrowShardCountsGrows(t *testing.T) {
	s, err := New(Options{
		Shards:   2,
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
