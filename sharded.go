package ccf

import "ccf/internal/shard"

// ShardedFilter partitions a filter across independent shards, each
// behind its own read-write lock, with batch insert/query entry points
// that group keys by shard. It serves mixed read/write traffic from many
// goroutines; with one shard (the default) it is a filter behind a single
// read-write lock. See internal/shard for the serving subsystem built on
// it and cmd/ccfd for the daemon.
type ShardedFilter = shard.ShardedFilter

// ShardOptions configures a ShardedFilter.
type ShardOptions = shard.Options

// NewSharded returns a sharded filter configured by opts.
func NewSharded(opts ShardOptions) (*ShardedFilter, error) { return shard.New(opts) }

// ShardedFromSnapshot rebuilds a sharded filter from a
// ShardedFilter.Snapshot payload.
func ShardedFromSnapshot(data []byte) (*ShardedFilter, error) {
	return shard.FromSnapshot(data)
}
