package shard

import "ccf/internal/core"

// FrozenSet bundles the per-shard immutable Frozen snapshots produced by
// ShardedFilter.Freeze behind the routing captured at freeze time, so
// callers can query the frozen set without being able to reproduce the
// internal key→shard hash.
type FrozenSet struct {
	rt     router
	shards []*core.FrozenLadder
}

// Query reports whether the frozen set may contain a matching row.
func (fs *FrozenSet) Query(key uint64, pred core.Predicate) bool {
	return fs.shards[fs.rt.shardOf(key)].Query(key, pred)
}

// QueryKey reports whether any row with the key may exist.
func (fs *FrozenSet) QueryKey(key uint64) bool {
	return fs.shards[fs.rt.shardOf(key)].QueryKey(key)
}

// Shards returns the underlying per-shard frozen ladders, indexed by
// shard; a shard that never grew holds a single level.
func (fs *FrozenSet) Shards() []*core.FrozenLadder { return fs.shards }

// Rows returns the total rows across shards.
func (fs *FrozenSet) Rows() int {
	n := 0
	for _, fr := range fs.shards {
		n += fr.Rows()
	}
	return n
}

// SizeBits returns the total packed size across shards.
func (fs *FrozenSet) SizeBits() int64 {
	var n int64
	for _, fr := range fs.shards {
		n += fr.SizeBits()
	}
	return n
}
