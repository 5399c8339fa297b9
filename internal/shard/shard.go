// Package shard partitions a conditional cuckoo filter across N
// independent core.Filter shards so a pre-built filter can absorb mixed
// read/write traffic from many goroutines.
//
// Keys are routed to shards by a salted hash that is independent of the
// in-shard bucket hash, so sharding does not skew bucket occupancy. Each
// shard sits behind its own read-write lock: readers of a shard share it,
// and writers of different shards never contend. Every read, whatever the
// variant or build, takes the shard's read lock once per batch group or
// point probe, so the read path the race detector checks is the one that
// serves.
//
// The batch entry points (InsertBatch, QueryBatch) group a request by shard
// first and enter each shard once per batch, not once per key, probing
// through core's tile pipeline: fold runs of equal keys, hash each run,
// read both buckets' per-slot hit masks with simd.MaskSlots, settle, and
// scatter each run's answer to its positions. Both run their shard groups
// in shard order on the calling goroutine, whatever the batch size, and
// the package starts no goroutine: a batch's parallelism is the
// overlapped memory misses inside each group, and a server gets more by
// serving connections concurrently. This is the deployment shape the
// paper targets (§3): filters built once, shipped to query processors,
// and probed at high rate during predicate pushdown, where per-key call
// overhead and serialized cache misses dominate unbatched designs.
package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"ccf/internal/core"
	"ccf/internal/hashing"
	"ccf/internal/obs/trace"
)

// saltShard seeds the key→shard routing hash. It is distinct from every
// salt used inside core so routing is independent of bucket placement.
const saltShard = 0x9009

// snapshotMagic begins a sharded snapshot ("CCFS").
const snapshotMagic = 0x53464343

// maxShards bounds Options.Shards. Every shard costs memory before it
// holds a row (about 17 KB empty), so New refuses larger counts instead of
// letting one request size the process out of memory.
const maxShards = 1024

// Errors returned by the sharded batch operations.
var (
	// ErrBatchShape reports keys and attrs slices of different lengths.
	ErrBatchShape = errors.New("shard: keys and attrs have different lengths")
	// ErrSnapshotMismatch reports a Restore snapshot whose shard count,
	// seed or NumAttrs differs from the receiver's. Restore keeps a
	// filter's key routing and predicate validation fixed for its life.
	ErrSnapshotMismatch = errors.New("shard: snapshot shard count, seed or NumAttrs differs from the filter's")
)

// Options configures a ShardedFilter.
type Options struct {
	// Shards is the number of partitions. Default 1.
	Shards int
	// AutoGrow is each shard's elastic-capacity budget (see
	// core.LadderOptions): MaxLevels ≤ 1 (the default) keeps shards
	// fixed-size, so ErrFull surfaces exactly as before; a larger budget
	// lets a shard open doubled levels instead of failing inserts.
	AutoGrow core.LadderOptions
	// Deprecated: Workers is ignored. Batch inserts, like batch queries,
	// run on the calling goroutine.
	Workers int
	// Params configures each shard's filter. Capacity (or Buckets, if set)
	// is divided evenly across shards.
	Params core.Params
}

// cell is one shard: a filter ladder behind a read-write lock, padded so
// two shards' locks never share a cache line. Readers hold mu for reading
// (read); every mutation of the ladder, level openings and Restore's
// replacement of f included, holds it for writing (write).
type cell struct {
	mu sync.RWMutex
	f  *core.Ladder
	_  [64]byte
}

// read runs probe against the cell's ladder under the cell's read lock.
func (c *cell) read(probe func(f *core.Ladder)) {
	c.mu.RLock()
	probe(c.f)
	c.mu.RUnlock()
}

// write runs apply against the cell's ladder under the cell's write lock.
func (c *cell) write(apply func(f *core.Ladder)) {
	c.mu.Lock()
	apply(c.f)
	c.mu.Unlock()
}

// ShardedFilter is a conditional cuckoo filter partitioned by key hash
// across independent shards. All methods are safe for concurrent use.
type ShardedFilter struct {
	cells []cell
	// seed is the routing salt base. Restore refuses a snapshot with
	// another seed, so it never changes after construction.
	seed uint64
	// metrics holds the always-on instrumentation handles (see Metrics).
	metrics Metrics
}

// New returns a sharded filter configured by opts.
func New(opts Options) (*ShardedFilter, error) {
	n := opts.Shards
	if n == 0 {
		n = 1
	}
	if n < 1 || n > maxShards {
		return nil, fmt.Errorf("shard: invalid shard count %d (want 1 to %d)", n, maxShards)
	}
	p := opts.Params
	if p.Buckets != 0 {
		p.Buckets = (p.Buckets + uint32(n) - 1) / uint32(n)
	} else if p.Capacity != 0 {
		p.Capacity = (p.Capacity + n - 1) / n
	}
	s := &ShardedFilter{cells: make([]cell, n)}
	for i := range s.cells {
		l, err := core.NewLadder(p, opts.AutoGrow)
		if err != nil {
			return nil, err
		}
		s.cells[i].f = l
	}
	s.seed = s.cells[0].f.Params().Seed
	return s, nil
}

// Shards returns the number of partitions.
func (s *ShardedFilter) Shards() int { return len(s.cells) }

// Params returns the effective per-shard parameters, read under the
// shard lock so it cannot race with Restore swapping filters (a fold
// changes the capacity; the seed and NumAttrs stay).
func (s *ShardedFilter) Params() core.Params {
	c := &s.cells[0]
	c.mu.RLock()
	p := c.f.Params()
	c.mu.RUnlock()
	return p
}

// router is the key→shard routing function,
// hashing.Key64(key, seed^saltShard) % n, with the salt hashed once.
type router struct {
	salt uint64 // hashing.Salt(seed ^ saltShard), hoisted out of every key's hash
	n    int
}

func newRouter(seed uint64, n int) router {
	return router{salt: hashing.Salt(seed ^ saltShard), n: n}
}

func (r router) shardOf(key uint64) int {
	if r.n == 1 {
		return 0
	}
	return int(hashing.Mix64(key^r.salt) % uint64(r.n))
}

// batchScratch holds the reusable grouping buffers of one batch
// operation. Instances cycle through a package-level pool so steady-state
// batches allocate nothing beyond their result slice.
type batchScratch struct {
	shards []int32
	counts []int32
	order  []int32
	start  []int32
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// i32buf returns buf resized to n, reusing its backing array when large
// enough.
func i32buf(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// group builds a counting-sort permutation of keys by shard into the
// scratch buffers: sc.order lists key indexes grouped by shard, and
// sc.start[i]:sc.start[i+1] bounds shard i's span. It assigns exactly what
// shardOf does; a power-of-two shard count takes the remainder as a mask.
func (r router) group(keys []uint64, sc *batchScratch) (order, start []int32) {
	n, salt := r.n, r.salt
	shards := i32buf(sc.shards, len(keys))
	counts := i32buf(sc.counts, n+1)
	clear(counts)
	pow2, mask := n&(n-1) == 0, uint64(n-1)
	for i, k := range keys {
		h := hashing.Mix64(k ^ salt)
		if pow2 {
			h &= mask
		} else {
			h %= uint64(n)
		}
		shards[i] = int32(h)
		counts[h+1]++
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	start = i32buf(sc.start, n+1)
	copy(start, counts)
	order = i32buf(sc.order, len(keys))
	for i, sh := range shards {
		order[counts[sh]] = int32(i)
		counts[sh]++
	}
	sc.shards, sc.counts, sc.start, sc.order = shards, counts, start, order
	return order, start
}

// router returns the filter's key→shard routing.
func (s *ShardedFilter) router() router { return newRouter(s.seed, len(s.cells)) }

// cellOf returns the shard that key routes to.
func (s *ShardedFilter) cellOf(key uint64) *cell { return &s.cells[s.router().shardOf(key)] }

// Insert adds a row, locking only the key's shard. With an AutoGrow
// budget the shard's ladder opens a new level instead of returning
// ErrFull, under the same write lock.
func (s *ShardedFilter) Insert(key uint64, attrs []uint64) error {
	var err error
	s.cellOf(key).write(func(f *core.Ladder) { err = f.Insert(key, attrs) })
	return err
}

// Delete removes a row (Plain variant only), locking only the key's shard.
func (s *ShardedFilter) Delete(key uint64, attrs []uint64) error {
	var err error
	s.cellOf(key).write(func(f *core.Ladder) { err = f.Delete(key, attrs) })
	return err
}

// GrowShard proactively opens a new ladder level in shard sh, the
// policy-driven grow used by layers that want to expand before the
// newest level starts failing kicks (internal/store logs it as a WAL
// record first, so recovery reproduces the exact level structure).
func (s *ShardedFilter) GrowShard(sh int) error {
	if sh < 0 || sh >= len(s.cells) {
		return fmt.Errorf("shard: grow of invalid shard %d (have %d)", sh, len(s.cells))
	}
	c := &s.cells[sh]
	c.mu.Lock()
	err := c.f.Grow()
	c.mu.Unlock()
	if err == nil {
		s.metrics.Grows.Inc()
	}
	return err
}

// AutoGrow returns the current elastic-capacity budget (read from shard
// 0; Restore and SetAutoGrow keep shards uniform).
func (s *ShardedFilter) AutoGrow() core.LadderOptions {
	c := &s.cells[0]
	c.mu.RLock()
	o := c.f.Options()
	c.mu.RUnlock()
	return o
}

// SetAutoGrow replaces every shard's elastic-capacity budget. It is the
// post-Restore hook for filters whose snapshots predate the policy (or
// carried a different one); safe to call while serving.
func (s *ShardedFilter) SetAutoGrow(opts core.LadderOptions) {
	for i := range s.cells {
		c := &s.cells[i]
		c.mu.Lock()
		c.f.SetOptions(opts)
		c.mu.Unlock()
	}
}

// Query reports whether a matching row may exist, probing the key's shard
// under its read lock.
func (s *ShardedFilter) Query(key uint64, pred core.Predicate) bool {
	var ok bool
	s.cellOf(key).read(func(f *core.Ladder) { ok = f.Query(key, pred) })
	return ok
}

// QueryKey reports whether any row with the key may exist.
func (s *ShardedFilter) QueryKey(key uint64) bool {
	var ok bool
	s.cellOf(key).read(func(f *core.Ladder) { ok = f.QueryKey(key) })
	return ok
}

// InsertBatch adds rows, grouping them by shard and taking each shard's
// write lock once. The result has one entry per key, nil on success; a
// shape mismatch between keys and attrs returns a single ErrBatchShape.
func (s *ShardedFilter) InsertBatch(keys []uint64, attrs [][]uint64) []error {
	if len(attrs) != len(keys) {
		return []error{ErrBatchShape}
	}
	if len(keys) == 0 {
		return nil
	}
	return s.InsertBatchInto(nil, keys, attrs)
}

// InsertBatchInto is InsertBatch writing results into dst (grown if its
// capacity is short), so callers that recycle result buffers insert with
// no per-batch allocation.
func (s *ShardedFilter) InsertBatchInto(dst []error, keys []uint64, attrs [][]uint64) []error {
	if len(attrs) != len(keys) {
		return append(dst[:0], ErrBatchShape)
	}
	errs := dst
	if cap(errs) < len(keys) {
		errs = make([]error, len(keys))
	} else {
		errs = errs[:len(keys)]
		for i := range errs {
			errs[i] = nil
		}
	}
	if len(keys) == 0 {
		return errs
	}
	s.eachGroup(nil, keys, func(sh int, idxs []int32) {
		s.insertShardGroup(sh, idxs, keys, attrs, errs)
	})
	return errs
}

// insertShardGroup applies one shard's span of a batch insert under the
// shard write lock, so readers never see half-applied rows. idxs == nil
// means "all keys" (single-shard routing).
func (s *ShardedFilter) insertShardGroup(sh int, idxs []int32, keys []uint64,
	attrs [][]uint64, errs []error) {
	s.cells[sh].write(func(f *core.Ladder) {
		if idxs == nil {
			for i := range keys {
				errs[i] = f.Insert(keys[i], attrs[i])
			}
			return
		}
		for _, i := range idxs {
			errs[i] = f.Insert(keys[i], attrs[i])
		}
	})
}

// QueryBatch answers one membership query per key under pred; see
// QueryBatchContext.
func (s *ShardedFilter) QueryBatch(keys []uint64, pred core.Predicate) []bool {
	if len(keys) == 0 {
		return nil
	}
	return s.QueryBatchInto(nil, keys, pred)
}

// QueryBatchInto is QueryBatch writing results into dst (grown if its
// capacity is short). Together with the pooled grouping scratch this
// makes the steady-state sharded probe path allocation-free: servers and
// benchmark loops recycle one result buffer per client.
func (s *ShardedFilter) QueryBatchInto(dst []bool, keys []uint64, pred core.Predicate) []bool {
	out, _ := s.QueryBatchContext(nil, dst, keys, pred, nil)
	return out
}

// QueryBatchContext is the sharded filter's one batch probe. It answers
// one membership query per key under pred, writing results into dst
// (grown if its capacity is short), grouping keys by shard and probing
// each shard's span under one hold of its read lock through the ladder's
// batch walker. The groups run in shard order on the calling goroutine,
// whatever the batch size. A nil or empty pred is key membership: it
// answers exactly what QueryKey answers (see core.Ladder.QueryBatchIdxWalk).
//
// The predicate is validated once per batch; Restore keeps NumAttrs
// fixed, so it holds for every group. An invalid predicate yields all
// true, matching Query's conservative no-false-negatives contract. A
// Restore that races the batch swaps each shard under its write lock,
// so each group reads one shard's contents from before it or after it.
//
// tr, when non-nil, receives one shard_probe span per shard group (nil
// probes untraced — the branch is the only cost, preserving the
// zero-alloc guarantee either way). ctx is checked before routing and
// between shard groups; on cancellation the
// batch returns ctx's error with the results produced so far (partial —
// callers must not serve them). A nil ctx (or one that never expires)
// costs one nil check per group, keeping the un-deadlined hot path
// allocation-free. One shard group is the minimum unit of work:
// cancellation is checked only between groups.
func (s *ShardedFilter) QueryBatchContext(ctx context.Context, dst []bool, keys []uint64, pred core.Predicate, tr *trace.Req) ([]bool, error) {
	out := dst
	if cap(out) < len(keys) {
		out = make([]bool, len(keys))
	} else {
		out = out[:len(keys)]
	}
	if len(keys) == 0 {
		return out, nil
	}
	if len(pred) > 0 && pred.Validate(s.Params().NumAttrs) != nil {
		for i := range out {
			out[i] = true
		}
		return out, nil
	}
	err := s.eachGroup(ctx, keys, func(sh int, idxs []int32) {
		s.queryShardGroup(sh, idxs, keys, pred, out, tr)
	})
	return out, err
}

// eachGroup is the one grouped loop of the batch operations. It runs fn
// once per non-empty shard group of keys, in shard order on the calling
// goroutine. fn gets the shard and the indexes of the keys routed to it
// (nil when one shard holds them all). ctx is checked before routing and
// between groups, and on cancellation eachGroup returns ctx's error. The
// grouping scratch cycles through a pool and fn stays on the stack, so a
// steady-state batch allocates nothing here.
func (s *ShardedFilter) eachGroup(ctx context.Context, keys []uint64, fn func(sh int, idxs []int32)) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	rt := s.router()
	if rt.n == 1 {
		fn(0, nil)
		return nil
	}
	sc := scratchPool.Get().(*batchScratch)
	order, start := rt.group(keys, sc)
	var err error
	for sh := 0; sh < rt.n; sh++ {
		if start[sh] == start[sh+1] {
			continue
		}
		if err = ctxErr(ctx); err != nil {
			break
		}
		fn(sh, order[start[sh]:start[sh+1]])
	}
	scratchPool.Put(sc)
	return err
}

// ctxErr reports ctx's cancellation state without blocking; a nil ctx
// never cancels and costs only the nil check — deadline-free callers
// keep the allocation-free fast path.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// queryShardGroup answers one shard's span of a batch query under the
// shard's read lock, with a predicate the caller validated. Untraced (tr
// nil), the span calls are no-ops and the walk depth goes unreported.
func (s *ShardedFilter) queryShardGroup(sh int, idxs []int32, keys []uint64,
	pred core.Predicate, out []bool, tr *trace.Req) {
	sp := tr.Start(trace.PhaseShardProbe)
	var walked int
	s.cells[sh].read(func(f *core.Ladder) { walked = f.QueryBatchIdxWalk(out, keys, idxs, pred) })
	n := len(idxs)
	if idxs == nil {
		n = len(keys)
	}
	sp.Attr(trace.AttrShard, int64(sh)).
		Attr(trace.AttrKeys, int64(n)).
		Attr(trace.AttrLevels, int64(walked)).
		End()
}

// GrowthStat is the slice of one shard's state the auto-grow policy
// reads after every mutation batch: how tall its ladder is and how full
// its newest level runs.
type GrowthStat struct {
	Levels     int
	NewestLoad float64
}

// GrowthStats fills dst (grown if short) with one GrowthStat per shard,
// each read under its shard's read lock. It is the policy layer's cheap
// alternative to Stats: no per-level slices are built, so a caller that
// recycles dst probes all shards allocation-free.
func (s *ShardedFilter) GrowthStats(dst []GrowthStat) []GrowthStat {
	if cap(dst) < len(s.cells) {
		dst = make([]GrowthStat, len(s.cells))
	} else {
		dst = dst[:len(s.cells)]
	}
	for i := range s.cells {
		s.cells[i].read(func(f *core.Ladder) {
			dst[i] = GrowthStat{Levels: f.Levels(), NewestLoad: f.NewestLoadFactor()}
		})
	}
	return dst
}

// Stats aggregates shard occupancy for monitoring. ShardDetail carries
// each shard's ladder breakdown (levels, grows, per-level occupancy) —
// the numbers the auto-grow and fold policies read; Grows and MaxLevels
// summarize them across shards.
type Stats struct {
	Shards      int                `json:"shards"`
	Rows        int                `json:"rows"`
	Occupied    int                `json:"occupied"`
	Capacity    int                `json:"capacity"`
	FreeSlots   int                `json:"free_slots"`
	LoadFactor  float64            `json:"load_factor"`
	SizeBits    int64              `json:"size_bits"`
	Grows       int                `json:"grows"`
	MaxLevels   int                `json:"max_levels"`
	ShardLoads  []float64          `json:"shard_loads"`
	ShardDetail []core.LadderStats `json:"shard_detail"`
}

// Stats returns aggregate and per-shard occupancy. Each shard is read
// under its own read lock like a query, so a scrape holds up only the
// writers of the shard it is reading; the counters of one shard are a
// consistent snapshot, while cross-shard skew from in-flight batches
// remains possible.
func (s *ShardedFilter) Stats() Stats {
	st := Stats{Shards: len(s.cells)}
	st.ShardLoads = make([]float64, len(s.cells))
	st.ShardDetail = make([]core.LadderStats, len(s.cells))
	for i := range s.cells {
		var ls core.LadderStats
		s.cells[i].read(func(f *core.Ladder) { ls = f.Stats() })
		st.Rows += ls.Rows
		st.Occupied += ls.Occupied
		st.Capacity += ls.Capacity
		st.FreeSlots += ls.FreeSlots
		st.SizeBits += ls.SizeBits
		st.Grows += ls.Grows
		if ls.Levels > st.MaxLevels {
			st.MaxLevels = ls.Levels
		}
		st.ShardLoads[i] = ls.LoadFactor
		st.ShardDetail[i] = ls
	}
	if st.Capacity > 0 {
		st.LoadFactor = float64(st.Occupied) / float64(st.Capacity)
	}
	return st
}

// Rows returns the total number of accepted rows.
func (s *ShardedFilter) Rows() int { return s.Stats().Rows }

// LoadFactor returns the aggregate load factor.
func (s *ShardedFilter) LoadFactor() float64 { return s.Stats().LoadFactor }

// SizeBits returns the total packed sketch size in bits.
func (s *ShardedFilter) SizeBits() int64 { return s.Stats().SizeBits }

// Snapshot serializes the whole shard set: a header followed by each
// shard's MarshalBinary payload, length-prefixed. Each shard is
// serialized under its own read lock, one shard at a time, so a snapshot
// holds up only the writers of the shard it is marshalling. The
// consistency trade: each shard's payload is individually consistent,
// but shards are serialized at different instants, so a concurrent
// mutation batch, or a concurrent Restore, may be captured on any subset
// of its shards. Callers that need a cut that is exact against in-flight
// mutations must exclude writers themselves, as internal/store's
// checkpointer does with its write barrier.
func (s *ShardedFilter) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], snapshotMagic)
	buf.Write(tmp[:])
	binary.LittleEndian.PutUint64(tmp[:], uint64(len(s.cells)))
	buf.Write(tmp[:])
	for i := range s.cells {
		var b []byte
		var err error
		s.cells[i].read(func(f *core.Ladder) { b, err = f.MarshalBinary() })
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint64(tmp[:], uint64(len(b)))
		buf.Write(tmp[:])
		buf.Write(b)
	}
	return buf.Bytes(), nil
}

// parseSnapshot splits a snapshot into per-shard payloads. It refuses
// more than maxShards shards, the bound New enforces, so FromSnapshot,
// Restore and store recovery cannot build a filter New would refuse.
func parseSnapshot(data []byte) ([][]byte, error) {
	if len(data) < 16 {
		return nil, errors.New("shard: truncated snapshot")
	}
	if binary.LittleEndian.Uint64(data) != snapshotMagic {
		return nil, errors.New("shard: bad snapshot magic")
	}
	n := binary.LittleEndian.Uint64(data[8:])
	if n == 0 || n > maxShards {
		return nil, fmt.Errorf("shard: snapshot shard count %d (want 1 to %d)", n, maxShards)
	}
	parts := make([][]byte, 0, n)
	off := 16
	for i := uint64(0); i < n; i++ {
		if off+8 > len(data) {
			return nil, errors.New("shard: truncated snapshot")
		}
		// Compare as uint64 against the remaining bytes before converting:
		// a crafted huge length must not overflow the int arithmetic below.
		l64 := binary.LittleEndian.Uint64(data[off:])
		off += 8
		if l64 > uint64(len(data)-off) {
			return nil, errors.New("shard: truncated snapshot")
		}
		l := int(l64)
		parts = append(parts, data[off:off+l])
		off += l
	}
	if off != len(data) {
		return nil, fmt.Errorf("shard: %d trailing bytes", len(data)-off)
	}
	return parts, nil
}

// decodeShards unmarshals the per-shard payloads of a parsed snapshot.
// Each payload is a ladder envelope; bare filter payloads from snapshots
// written before the elastic-capacity engine decode as one-level ladders
// (core.Ladder.UnmarshalBinary), so old snapshots and checkpoint
// segments still restore. Every shard must share shard 0's seed and
// NumAttrs, as New builds them: a batch routes by one seed and validates
// its predicate once against one NumAttrs.
func decodeShards(parts [][]byte) ([]*core.Ladder, error) {
	ladders := make([]*core.Ladder, len(parts))
	for i, b := range parts {
		l := new(core.Ladder)
		if err := l.UnmarshalBinary(b); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		ladders[i] = l
		if p, p0 := l.Params(), ladders[0].Params(); p.Seed != p0.Seed || p.NumAttrs != p0.NumAttrs {
			return nil, fmt.Errorf("shard: shard %d's seed or NumAttrs differs from shard 0's", i)
		}
	}
	return ladders, nil
}

// Restore replaces the shard contents with a snapshot of a filter with
// the receiver's shard count, seed and NumAttrs, and refuses any other
// with ErrSnapshotMismatch, so a key's shard and a predicate's validity
// never change. It is meant for contents that hold the same rows, such as
// a store fold's right-sized rebuild. Each shard's ladder is swapped
// under that shard's write lock, one shard at a time: an operation that
// races the Restore sees each shard either before or after its swap, and
// two concurrent Restores may interleave shard by shard.
func (s *ShardedFilter) Restore(data []byte) error {
	parts, err := parseSnapshot(data)
	if err != nil {
		return err
	}
	if len(parts) != len(s.cells) {
		return fmt.Errorf("%w: snapshot has %d shards, filter %d", ErrSnapshotMismatch, len(parts), len(s.cells))
	}
	// Decode before locking so a corrupt snapshot leaves the filter whole.
	fresh, err := decodeShards(parts)
	if err != nil {
		return err
	}
	p, numAttrs := fresh[0].Params(), s.Params().NumAttrs
	if p.Seed != s.seed || p.NumAttrs != numAttrs {
		return fmt.Errorf("%w: snapshot seed %d with %d attributes, filter seed %d with %d",
			ErrSnapshotMismatch, p.Seed, p.NumAttrs, s.seed, numAttrs)
	}
	for i := range s.cells {
		c := &s.cells[i]
		c.mu.Lock()
		c.f = fresh[i]
		c.mu.Unlock()
	}
	return nil
}

// FromSnapshot builds a new sharded filter from a Snapshot payload. The
// shard count and per-shard parameters come from the snapshot.
func FromSnapshot(data []byte) (*ShardedFilter, error) {
	parts, err := parseSnapshot(data)
	if err != nil {
		return nil, err
	}
	filters, err := decodeShards(parts)
	if err != nil {
		return nil, err
	}
	s := &ShardedFilter{cells: make([]cell, len(parts))}
	for i, f := range filters {
		s.cells[i].f = f
	}
	s.seed = filters[0].Params().Seed
	return s, nil
}
