package shard

import "ccf/internal/core"

// KeyView is a sharded key-only membership filter for a fixed predicate
// (Algorithm 2): one core.KeyView per shard behind the routing function
// captured when the view was extracted. Views are immutable, so lookups
// take no locks; a view extracted before later inserts (or a Restore)
// simply does not reflect them — callers that need freshness compare
// ShardedFilter.Version (see internal/server's cache).
type KeyView struct {
	rt    router
	views []*core.LadderKeyView
}

// Contains reports whether key may have a row satisfying the view's
// predicate.
func (v *KeyView) Contains(key uint64) bool {
	return v.views[v.rt.shardOf(key)].Contains(key)
}

// ContainsBatch answers Contains for every key, grouping by shard so the
// per-shard view stays hot in cache across its span of the batch.
func (v *KeyView) ContainsBatch(keys []uint64) []bool {
	if len(keys) == 0 {
		return nil
	}
	return v.ContainsBatchInto(nil, keys)
}

// ContainsBatchInto is ContainsBatch writing results into dst (grown if
// its capacity is short), using the pooled grouping scratch so repeated
// view probes allocate nothing beyond a reused result buffer. The shard
// groups run in order on the calling goroutine.
func (v *KeyView) ContainsBatchInto(dst []bool, keys []uint64) []bool {
	out := dst
	if cap(out) < len(keys) {
		out = make([]bool, len(keys))
	} else {
		out = out[:len(keys)]
	}
	if len(keys) == 0 {
		return out
	}
	if len(v.views) == 1 {
		kv := v.views[0]
		for i, k := range keys {
			out[i] = kv.Contains(k)
		}
		return out
	}
	sc := scratchPool.Get().(*batchScratch)
	order, start := v.rt.group(keys, sc)
	for sh, kv := range v.views {
		for _, i := range order[start[sh]:start[sh+1]] {
			out[i] = kv.Contains(keys[i])
		}
	}
	scratchPool.Put(sc)
	return out
}

// SizeBits returns the total packed size of the per-shard views.
func (v *KeyView) SizeBits() int64 {
	var n int64
	for _, kv := range v.views {
		n += kv.SizeBits()
	}
	return n
}

// MatchingEntries returns the total live entries across shards.
func (v *KeyView) MatchingEntries() int {
	n := 0
	for _, kv := range v.views {
		n += kv.MatchingEntries()
	}
	return n
}

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
