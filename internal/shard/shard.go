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
	"sync/atomic"

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
	// ErrShardCount reports a Restore snapshot whose shard count does not
	// match the receiver.
	ErrShardCount = errors.New("shard: snapshot shard count mismatch")
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
// (readCell); every mutation of the ladder, level openings included,
// holds it for writing, and Restore holds every cell's write lock while it
// replaces f.
type cell struct {
	mu sync.RWMutex
	f  *core.Ladder
	_  [64]byte
}

// ShardedFilter is a conditional cuckoo filter partitioned by key hash
// across independent shards. All methods are safe for concurrent use.
type ShardedFilter struct {
	cells []cell
	seed  atomic.Uint64 // routing salt base; atomic because Restore may swap it
	// gen counts completed Restores; it is bumped while every shard lock
	// is held. Operations capture it before routing and re-check it under
	// the shard lock: a mismatch means a Restore swapped the contents
	// (even one restoring an identical seed) and the operation must
	// re-route. The seed alone cannot detect that, since snapshots of the
	// same filter carry the same seed.
	gen atomic.Uint64
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
	s.seed.Store(s.cells[0].f.Params().Seed)
	return s, nil
}

// Shards returns the number of partitions.
func (s *ShardedFilter) Shards() int { return len(s.cells) }

// Params returns the effective per-shard parameters, read under the
// shard lock so it cannot race with Restore swapping filters.
func (s *ShardedFilter) Params() core.Params {
	c := &s.cells[0]
	c.mu.RLock()
	p := c.f.Params()
	c.mu.RUnlock()
	return p
}

// router is an immutable snapshot of the key→shard routing function,
// hashing.Key64(key, seed^saltShard) % n. Operations capture one up front
// so routing stays self-consistent even if Restore swaps the seed
// mid-flight.
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

// router returns the current routing snapshot.
func (s *ShardedFilter) router() router { return newRouter(s.seed.Load(), len(s.cells)) }

// shardOf routes a key to its shard under the current routing.
func (s *ShardedFilter) shardOf(key uint64) int { return s.router().shardOf(key) }

// readCell runs probe against the cell's ladder under the cell's read
// lock. It returns false without probing when gen no longer matches the
// filter's Restore generation; the caller captured its routing against
// that generation and must re-route.
func (s *ShardedFilter) readCell(c *cell, gen uint64, probe func(f *core.Ladder)) bool {
	c.mu.RLock()
	ok := s.gen.Load() == gen
	if ok {
		probe(c.f)
	}
	c.mu.RUnlock()
	return ok
}

// writeCell is readCell under the cell's write lock, for mutations.
func (s *ShardedFilter) writeCell(c *cell, gen uint64, apply func(f *core.Ladder)) bool {
	c.mu.Lock()
	ok := s.gen.Load() == gen
	if ok {
		apply(c.f)
	}
	c.mu.Unlock()
	return ok
}

// withShard routes key to its shard and runs fn with the shard's filter,
// under the shard write lock when mutate is set and the read lock
// otherwise. Routing is computed before entering the shard, so a
// concurrent Restore can swap the contents (and possibly the seed) in
// between; since Restore bumps gen while holding every shard lock,
// re-checking gen under the lock detects that, and we re-route. The retry
// makes point operations atomic with respect to Restore: they apply
// either fully before or fully after it, never with stale routing against
// fresh contents.
func (s *ShardedFilter) withShard(key uint64, mutate bool, fn func(f *core.Ladder)) {
	for {
		gen := s.gen.Load()
		c := &s.cells[s.shardOf(key)]
		var ok bool
		if mutate {
			ok = s.writeCell(c, gen, fn)
		} else {
			ok = s.readCell(c, gen, fn)
		}
		if ok {
			return
		}
	}
}

// Insert adds a row, locking only the key's shard. With an AutoGrow
// budget the shard's ladder opens a new level instead of returning
// ErrFull, under the same write lock.
func (s *ShardedFilter) Insert(key uint64, attrs []uint64) error {
	var err error
	s.withShard(key, true, func(f *core.Ladder) { err = f.Insert(key, attrs) })
	return err
}

// Delete removes a row (Plain variant only), locking only the key's shard.
func (s *ShardedFilter) Delete(key uint64, attrs []uint64) error {
	var err error
	s.withShard(key, true, func(f *core.Ladder) { err = f.Delete(key, attrs) })
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
	s.withShard(key, false, func(f *core.Ladder) { ok = f.Query(key, pred) })
	return ok
}

// QueryKey reports whether any row with the key may exist.
func (s *ShardedFilter) QueryKey(key uint64) bool {
	var ok bool
	s.withShard(key, false, func(f *core.Ladder) { ok = f.QueryKey(key) })
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
	s.eachGroup(nil, keys, func(sh int, idxs []int32, gen uint64) bool {
		return s.insertShardGroup(sh, idxs, keys, attrs, errs, gen)
	})
	return errs
}

// insertShardGroup applies one shard's span of a batch insert under the
// shard write lock (writeCell), so readers never see half-applied rows.
// idxs == nil means "all keys" (single-shard routing). It reports false,
// applying nothing, when a Restore completed after gen was captured: rows
// applied to earlier groups went into the filters it discarded, so the
// whole batch retries against the restored contents.
func (s *ShardedFilter) insertShardGroup(sh int, idxs []int32, keys []uint64,
	attrs [][]uint64, errs []error, gen uint64) bool {
	return s.writeCell(&s.cells[sh], gen, func(f *core.Ladder) {
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
// The predicate is validated once per shard group — under the same read
// lock as the probes, so a concurrent Restore cannot change
// NumAttrs between validation and probing; an invalid predicate yields
// all true, matching Query's conservative no-false-negatives contract. A
// Restore that races the batch is detected by the generation check and
// the batch retries, so results always reflect one consistent routing.
//
// tr, when non-nil, receives one shard_probe span per shard group (nil
// probes untraced — the branch is the only cost, preserving the
// zero-alloc guarantee either way). ctx is checked before each routing
// attempt and between shard groups; on cancellation the
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
	err := s.eachGroup(ctx, keys, func(sh int, idxs []int32, gen uint64) bool {
		return s.queryShardGroup(sh, idxs, keys, pred, out, gen, tr)
	})
	return out, err
}

// eachGroup is the one grouped loop of the batch operations. It runs fn
// once per non-empty shard group of keys, in shard order on the calling
// goroutine, under one routing captured against the Restore generation
// gen. fn gets the shard, the indexes of the keys routed to it (nil when
// one shard holds them all) and gen, and reports false when a Restore
// completed after gen was captured; the whole batch then re-routes and
// runs again. ctx is checked before each routing attempt and between
// groups, and on cancellation eachGroup returns ctx's error. The grouping
// scratch cycles through a pool and fn stays on the stack, so a
// steady-state batch allocates nothing here.
func (s *ShardedFilter) eachGroup(ctx context.Context, keys []uint64,
	fn func(sh int, idxs []int32, gen uint64) bool) error {
	for {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		gen := s.gen.Load()
		rt := s.router()
		if rt.n == 1 {
			if fn(0, nil, gen) {
				return nil
			}
			continue
		}
		sc := scratchPool.Get().(*batchScratch)
		order, start := rt.group(keys, sc)
		done := true
		var err error
		for sh := 0; sh < rt.n && done; sh++ {
			if start[sh] == start[sh+1] {
				continue
			}
			if err = ctxErr(ctx); err != nil {
				break
			}
			done = fn(sh, order[start[sh]:start[sh+1]], gen)
		}
		scratchPool.Put(sc)
		if err != nil || done {
			return err
		}
	}
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
// shard's read lock (readCell). The predicate is validated once per
// group, under that lock, so a concurrent Restore cannot change NumAttrs
// between validation and probing; an invalid predicate yields all true,
// matching Query's conservative no-false-negatives contract. Untraced (tr
// nil), the span calls are no-ops and the walk depth goes unreported. It
// reports false when a Restore completed after gen was captured and the
// batch must re-route.
func (s *ShardedFilter) queryShardGroup(sh int, idxs []int32, keys []uint64,
	pred core.Predicate, out []bool, gen uint64, tr *trace.Req) bool {
	sp := tr.Start(trace.PhaseShardProbe)
	var walked int
	ok := s.readCell(&s.cells[sh], gen, func(f *core.Ladder) {
		if pred.Validate(f.Params().NumAttrs) != nil {
			markTrue(out, idxs)
			return
		}
		walked = f.QueryBatchIdxWalk(out, keys, idxs, pred)
	})
	n := len(idxs)
	if idxs == nil {
		n = len(keys)
	}
	sp.Attr(trace.AttrShard, int64(sh)).
		Attr(trace.AttrKeys, int64(n)).
		Attr(trace.AttrLevels, int64(walked)).
		End()
	return ok
}

// markTrue sets out true for the addressed keys (whole batch when idxs
// is nil), the invalid-predicate conservative answer.
func markTrue(out []bool, idxs []int32) {
	if idxs == nil {
		for i := range out {
			out[i] = true
		}
		return
	}
	for _, i := range idxs {
		out[i] = true
	}
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
	for {
		gen := s.gen.Load()
		ok := true
		for i := range s.cells {
			if !s.readCell(&s.cells[i], gen, func(f *core.Ladder) {
				dst[i] = GrowthStat{Levels: f.Levels(), NewestLoad: f.NewestLoadFactor()}
			}) {
				ok = false
				break
			}
		}
		if ok {
			return dst
		}
	}
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
	for {
		gen := s.gen.Load()
		st := Stats{Shards: len(s.cells)}
		st.ShardLoads = make([]float64, len(s.cells))
		st.ShardDetail = make([]core.LadderStats, len(s.cells))
		ok := true
		for i := range s.cells {
			var ls core.LadderStats
			if !s.readCell(&s.cells[i], gen, func(f *core.Ladder) { ls = f.Stats() }) {
				ok = false
				break
			}
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
		if !ok {
			continue // Restore raced; re-read against the new generation
		}
		if st.Capacity > 0 {
			st.LoadFactor = float64(st.Occupied) / float64(st.Capacity)
		}
		return st
	}
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
// consistency trade: each shard's payload is individually consistent and
// a concurrent Restore is excluded by the generation fence (the whole
// snapshot retries, so the payload can never mix shards from before and
// after one), but shards are serialized at different instants, so a
// concurrent mutation batch may be captured on any subset of its shards —
// including a shard it reached late but not one it reached early, an
// interleaving an all-locks point-in-time cut could not produce. Callers
// that need a cut that is exact against in-flight mutations must exclude
// writers themselves, as internal/store's checkpointer does with its
// write barrier.
func (s *ShardedFilter) Snapshot() ([]byte, error) {
	for {
		gen := s.gen.Load()
		parts := make([][]byte, len(s.cells))
		ok := true
		for i := range s.cells {
			var b []byte
			var err error
			if !s.readCell(&s.cells[i], gen, func(f *core.Ladder) {
				b, err = f.MarshalBinary()
			}) {
				ok = false
				break
			}
			if err != nil {
				return nil, err
			}
			parts[i] = b
		}
		if !ok || s.gen.Load() != gen {
			continue // Restore raced; serialize the restored contents
		}
		var buf bytes.Buffer
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], snapshotMagic)
		buf.Write(tmp[:])
		binary.LittleEndian.PutUint64(tmp[:], uint64(len(s.cells)))
		buf.Write(tmp[:])
		for _, b := range parts {
			binary.LittleEndian.PutUint64(tmp[:], uint64(len(b)))
			buf.Write(tmp[:])
			buf.Write(b)
		}
		return buf.Bytes(), nil
	}
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
// segments still restore.
func decodeShards(parts [][]byte) ([]*core.Ladder, error) {
	ladders := make([]*core.Ladder, len(parts))
	for i, b := range parts {
		l := new(core.Ladder)
		if err := l.UnmarshalBinary(b); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		ladders[i] = l
	}
	return ladders, nil
}

// Restore replaces the shard contents with a snapshot taken from a filter
// with the same shard count. Every shard write lock is acquired (in
// index order) and held across the whole content-and-seed swap, so the
// restore is atomic with respect to concurrent operations: no insert can
// route with the old seed into a new shard, and no reader sees a mix of
// old and new shards.
func (s *ShardedFilter) Restore(data []byte) error {
	parts, err := parseSnapshot(data)
	if err != nil {
		return err
	}
	if len(parts) != len(s.cells) {
		return fmt.Errorf("%w: snapshot %d, filter %d", ErrShardCount, len(parts), len(s.cells))
	}
	// Decode before locking so a corrupt snapshot leaves the filter whole.
	fresh, err := decodeShards(parts)
	if err != nil {
		return err
	}
	for i := range s.cells {
		s.cells[i].mu.Lock()
	}
	for i := range s.cells {
		s.cells[i].f = fresh[i]
	}
	s.seed.Store(fresh[0].Params().Seed)
	s.gen.Add(1) // bumped under all locks; see the gen field
	for i := range s.cells {
		s.cells[i].mu.Unlock()
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
	s.seed.Store(filters[0].Params().Seed)
	return s, nil
}
