// Package shard partitions a conditional cuckoo filter across N
// independent core.Filter shards so a pre-built filter can absorb mixed
// read/write traffic from many goroutines.
//
// Keys are routed to shards by a salted hash that is independent of the
// in-shard bucket hash, so sharding does not skew bucket occupancy. Writers
// of different shards never contend: each shard carries its own write
// mutex. Readers do not lock at all on the common path — every shard is a
// seqlock (an atomic version counter its writers bump to odd before
// mutating and back to even after), and readers sample the counter, probe
// optimistically, and retry if it moved. A torn read of the packed bucket
// storage can mislead but never fault (the table is flat pointer-free
// slices, see core.Filter.ReadOptimistic), and the version recheck
// discards any result a concurrent writer could have corrupted. Variants
// whose probes chase sketch pointers (Bloom, Mixed), builds under the race
// detector, and readers that lose the optimistic race too often fall back
// to the shard's read lock.
//
// The batch entry points (InsertBatch, QueryBatch) group a request by shard
// first and enter each shard once per batch, not once per key, probing
// through core's batched two-phase pipeline (hash + overlapped bucket
// loads, then SWAR compares). A batch query runs its shard groups in
// order on the calling goroutine: its parallelism is the overlapped
// memory misses inside each group, and a server gets more by serving
// connections concurrently. Only batch inserts of 512 rows or more spread
// their groups over up to Options.Workers goroutines. This is the
// deployment shape the paper targets (§3): filters built once, shipped to
// query processors, and probed at high rate during predicate pushdown,
// where per-key call overhead and serialized cache misses dominate
// unbatched designs.
package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
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
	// Workers bounds the goroutines used by batch inserts. 0 means
	// GOMAXPROCS; 1 runs inserts entirely on the calling goroutine. Batch
	// queries always run on the calling goroutine.
	Workers int
	// PessimisticReads disables the optimistic seqlock read path: every
	// read takes the shard read lock, the pre-seqlock behavior. It exists
	// for benchmarking the seqlock against the RLock baseline and as an
	// operational escape hatch; the sketched variants (Bloom, Mixed) are
	// read pessimistically regardless, see core.Filter.ReadOptimistic.
	// Filters built by FromSnapshot don't pass through Options; use
	// SetPessimisticReads on them.
	PessimisticReads bool
	// Params configures each shard's filter. Capacity (or Buckets, if set)
	// is divided evenly across shards.
	Params core.Params
}

// optimisticReadTries bounds how many times a reader re-probes a shard
// whose version keeps moving before it falls back to the read lock. Low:
// each failed try is wasted work, and under sustained write pressure the
// lock's queueing is the better citizen (it cannot livelock).
const optimisticReadTries = 4

// seqlockProbeHook, when non-nil, runs between a reader's version sample
// and its optimistic probe. Tests use it to force a mutation into that
// window — a deterministic torn read — and assert the retry; it is a
// single predictable nil check per shard group in production.
var seqlockProbeHook func()

// cell is one shard: a filter ladder behind a seqlock and a write mutex,
// padded so two shards' hot atomics never share a cache line.
//
// Writer protocol: hold mu, then bump seq to odd (beginWrite), mutate the
// ladder in place, bump seq back to even (endWrite). Opening a new level
// is one of those in-place mutations: the ladder publishes its level list
// through an internal atomic pointer, so the append happens inside the
// odd-seq window like any other write and an overlapped optimistic probe
// discards its result and retries. Restore follows the same protocol
// around swapping f itself. The mutex serializes writers; the seq bumps
// are what readers observe.
//
// Reader protocol (readCell): sample seq (spin past odd), load f, probe,
// re-sample; a changed seq means a writer overlapped and the result —
// possibly computed from torn data — is discarded and retried. The ladder
// pointer is atomic so a reader always probes a coherent object even when
// it loses the race to a concurrent Restore.
type cell struct {
	mu  sync.RWMutex
	seq atomic.Uint64
	f   atomic.Pointer[core.Ladder]
	_   [64]byte
}

// beginWrite marks the cell mutating (seq odd). Callers hold mu.
func (c *cell) beginWrite() { c.seq.Add(1) }

// endWrite publishes the mutation (seq even again).
func (c *cell) endWrite() { c.seq.Add(1) }

// ShardedFilter is a conditional cuckoo filter partitioned by key hash
// across independent shards. All methods are safe for concurrent use.
type ShardedFilter struct {
	cells       []cell
	seed        atomic.Uint64 // routing salt base; atomic because Restore may swap it
	workers     int
	pessimistic atomic.Bool   // Options.PessimisticReads / SetPessimisticReads
	version     atomic.Uint64 // bumped by every successful mutation; see Version
	// gen counts completed Restores; it is bumped while every shard lock
	// is held. Operations capture it before routing and re-check it inside
	// the read section (or under the write lock): a mismatch means a
	// Restore swapped the contents (even one restoring an identical seed)
	// and the operation must re-route. The seed alone cannot detect that,
	// since snapshots of the same filter carry the same seed.
	gen atomic.Uint64
	// metrics holds the always-on instrumentation handles (see Metrics);
	// by value so hot paths reach them with one pointer offset.
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
	w := opts.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		return nil, fmt.Errorf("shard: invalid worker count %d", opts.Workers)
	}
	s := &ShardedFilter{cells: make([]cell, n), workers: w}
	s.pessimistic.Store(opts.PessimisticReads)
	for i := range s.cells {
		l, err := core.NewLadder(p, opts.AutoGrow)
		if err != nil {
			return nil, err
		}
		s.cells[i].f.Store(l)
	}
	s.seed.Store(s.cells[0].f.Load().Params().Seed)
	return s, nil
}

// Shards returns the number of partitions.
func (s *ShardedFilter) Shards() int { return len(s.cells) }

// Params returns the effective per-shard parameters, read under the
// shard lock so it cannot race with Restore swapping filters.
func (s *ShardedFilter) Params() core.Params {
	c := &s.cells[0]
	c.mu.RLock()
	p := c.f.Load().Params()
	c.mu.RUnlock()
	return p
}

// Version returns a counter bumped by every successful mutation (Insert,
// Delete, InsertBatch, Restore). Caches layered above the filter compare
// versions to detect staleness; see internal/server.
func (s *ShardedFilter) Version() uint64 { return s.version.Load() }

// SetPessimisticReads switches the read path at runtime: true forces
// every read onto the shard read lock (see Options.PessimisticReads).
// It is the escape hatch for filters that did not pass through Options —
// FromSnapshot restores, store recovery — and is safe to flip while
// serving; in-flight optimistic reads still finish under their version
// check.
func (s *ShardedFilter) SetPessimisticReads(v bool) { s.pessimistic.Store(v) }

// router is an immutable snapshot of the key→shard routing function,
// hashing.Key64(key, seed^saltShard) % n. Operations (and extracted
// key-views) capture one up front so routing stays self-consistent even
// if Restore swaps the seed mid-flight.
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
	groups []int32
	// stale is a batch insert's Restore-race flag. It lives in the pooled
	// scratch (not a local) so the parallel fan-out closure captures only
	// read-only values and the caller's frame stays heap-free.
	stale atomic.Bool
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

// probeCount accumulates one probe's seqlock outcomes for span
// attribution. Plain counters: each instance is owned by the single
// goroutine running its shard group.
type probeCount struct {
	retries, fallbacks uint32
}

// readCell runs probe against the cell's filter, optimistically under the
// seqlock when the filter supports torn reads, falling back to the read
// lock otherwise (sketched variants, race builds, PessimisticReads, or a
// version that keeps moving). probe may run more than once and must be
// idempotent — assign results, don't accumulate. readCell returns false
// when gen no longer matches the filter's Restore generation; the caller
// captured its routing against that generation and must re-route. pc,
// when non-nil, receives this call's retry/fallback counts on top of
// the global metrics (traced probes attribute contention per span).
func (s *ShardedFilter) readCell(c *cell, gen uint64, probe func(f *core.Ladder), pc *probeCount) bool {
	if !raceEnabled && !s.pessimistic.Load() {
		for try := 0; try < optimisticReadTries; try++ {
			v := c.seq.Load()
			if v&1 != 0 {
				// A writer is mid-mutation; yield so it can finish (on a
				// loaded single core a spin would run out its timeslice).
				runtime.Gosched()
				continue
			}
			if s.gen.Load() != gen {
				return false
			}
			f := c.f.Load()
			if !f.ReadOptimistic() {
				break
			}
			if h := seqlockProbeHook; h != nil {
				h()
			}
			probe(f)
			if c.seq.Load() == v {
				return true
			}
			// A writer overlapped the read section; the result may have
			// been computed from torn data and is discarded.
			s.metrics.SeqlockRetries.Inc()
			if pc != nil {
				pc.retries++
			}
		}
	}
	s.metrics.SeqlockFallbacks.Inc()
	if pc != nil {
		pc.fallbacks++
	}
	c.mu.RLock()
	ok := s.gen.Load() == gen
	if ok {
		probe(c.f.Load())
	}
	c.mu.RUnlock()
	return ok
}

// withShard routes key to its shard and runs fn with the shard's filter:
// under the shard write lock with the seqlock bumped when mutate is set,
// through readCell's optimistic protocol otherwise. Routing is computed
// before entering the shard, so a concurrent Restore can swap the contents
// (and possibly the seed) in between; since Restore bumps gen while
// holding every shard lock, re-checking gen inside the read section (or
// under the lock) detects that, and we re-route. The retry makes point
// operations atomic with respect to Restore: they apply either fully
// before or fully after it, never with stale routing against fresh
// contents.
func (s *ShardedFilter) withShard(key uint64, mutate bool, fn func(f *core.Ladder)) {
	for {
		gen := s.gen.Load()
		rt := s.router()
		c := &s.cells[rt.shardOf(key)]
		if !mutate {
			if s.readCell(c, gen, fn, nil) {
				return
			}
			continue
		}
		c.mu.Lock()
		ok := s.gen.Load() == gen
		if ok {
			c.beginWrite()
			fn(c.f.Load())
			c.endWrite()
		}
		c.mu.Unlock()
		if ok {
			return
		}
	}
}

// Insert adds a row, locking only the key's shard. With an AutoGrow
// budget the shard's ladder opens a new level instead of returning
// ErrFull; the level append happens inside the seqlock's odd window.
func (s *ShardedFilter) Insert(key uint64, attrs []uint64) error {
	var err error
	s.withShard(key, true, func(f *core.Ladder) { err = f.Insert(key, attrs) })
	if err == nil {
		s.version.Add(1)
	}
	return err
}

// Delete removes a row (Plain variant only), locking only the key's shard.
func (s *ShardedFilter) Delete(key uint64, attrs []uint64) error {
	var err error
	s.withShard(key, true, func(f *core.Ladder) { err = f.Delete(key, attrs) })
	if err == nil {
		s.version.Add(1)
	}
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
	c.beginWrite()
	err := c.f.Load().Grow()
	c.endWrite()
	c.mu.Unlock()
	if err == nil {
		s.version.Add(1)
		s.metrics.Grows.Inc()
	}
	return err
}

// AutoGrow returns the current elastic-capacity budget (read from shard
// 0; Restore and SetAutoGrow keep shards uniform).
func (s *ShardedFilter) AutoGrow() core.LadderOptions {
	c := &s.cells[0]
	c.mu.RLock()
	o := c.f.Load().Options()
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
		c.beginWrite()
		c.f.Load().SetOptions(opts)
		c.endWrite()
		c.mu.Unlock()
	}
}

// Query reports whether a matching row may exist, probing the key's shard
// through the seqlock.
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

// minKeysPerWorker bounds batch-insert fan-out: spawning a goroutine
// costs a few microseconds, so it only pays once a worker has a few
// hundred inserts to amortize it over. Smaller batches run inline — the
// right shape for servers whose request handlers are already concurrent.
const minKeysPerWorker = 512

// groupWorkers stages the non-empty shard groups of a batch insert in
// sc.groups and returns how many workers the grouped spans justify. The
// caller runs the groups inline when the answer is ≤ 1 — with direct
// method calls, so the steady-state batch path creates no closures or
// goroutines — and fans out to runGroupsParallel otherwise.
func groupWorkers(workers int, sc *batchScratch) int {
	start := sc.start
	sc.groups = sc.groups[:0]
	for sh := 0; sh+1 < len(start); sh++ {
		if start[sh+1] > start[sh] {
			sc.groups = append(sc.groups, int32(sh))
		}
	}
	w := workers
	if max := len(sc.order)/minKeysPerWorker + 1; w > max {
		w = max
	}
	if w > len(sc.groups) {
		w = len(sc.groups)
	}
	return w
}

// runGroupsParallel runs fn once per staged shard group of a batch insert
// on a pool of w workers (w ≥ 2, from groupWorkers). fn receives the shard
// index and the key indexes routed to it.
func runGroupsParallel(w int, sc *batchScratch, fn func(sh int, idxs []int32)) {
	order, start := sc.order, sc.start
	ch := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for sh := range ch {
				fn(sh, order[start[sh]:start[sh+1]])
			}
		}()
	}
	for _, sh := range sc.groups {
		ch <- int(sh)
	}
	close(ch)
	wg.Wait()
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
	for {
		gen := s.gen.Load()
		rt := s.router()
		if rt.n == 1 {
			var stale atomic.Bool
			s.insertShardGroup(0, nil, keys, attrs, errs, gen, &stale)
			if !stale.Load() {
				break
			}
			continue
		}
		if s.insertGrouped(rt, keys, attrs, errs, gen) {
			break
		}
	}
	for _, err := range errs {
		if err == nil {
			s.version.Add(1)
			break
		}
	}
	return errs
}

// insertGrouped applies a multi-shard batch insert under one grouping
// pass, reporting false when a racing Restore invalidated the routing and
// the batch must retry. The single-worker path runs with direct method
// calls — no closure, no goroutines — so steady-state grouped inserts
// allocate nothing; the parallel fan-out closure captures only read-only
// parameters, keeping the caller's frame off the heap.
func (s *ShardedFilter) insertGrouped(rt router, keys []uint64, attrs [][]uint64,
	errs []error, gen uint64) bool {
	sc := scratchPool.Get().(*batchScratch)
	sc.stale.Store(false)
	rt.group(keys, sc)
	if w := groupWorkers(s.workers, sc); w <= 1 {
		for _, sh := range sc.groups {
			s.insertShardGroup(int(sh), sc.order[sc.start[sh]:sc.start[sh+1]],
				keys, attrs, errs, gen, &sc.stale)
		}
	} else {
		runGroupsParallel(w, sc, func(sh int, idxs []int32) {
			s.insertShardGroup(sh, idxs, keys, attrs, errs, gen, &sc.stale)
		})
	}
	done := !sc.stale.Load()
	scratchPool.Put(sc)
	return done
}

// insertShardGroup applies one shard's span of a batch insert under the
// shard write lock, with the seqlock held odd so concurrent optimistic
// readers retry instead of consuming half-applied rows. idxs == nil means
// "all keys" (single-shard routing). A generation mismatch means a Restore
// completed after routing; rows applied so far went into the filters it
// discarded, so the whole batch retries against the restored contents.
func (s *ShardedFilter) insertShardGroup(sh int, idxs []int32, keys []uint64,
	attrs [][]uint64, errs []error, gen uint64, stale *atomic.Bool) {
	c := &s.cells[sh]
	c.mu.Lock()
	switch {
	case s.gen.Load() != gen:
		stale.Store(true)
	case idxs == nil:
		c.beginWrite()
		l := c.f.Load()
		for i := range keys {
			errs[i] = l.Insert(keys[i], attrs[i])
		}
		c.endWrite()
	default:
		c.beginWrite()
		l := c.f.Load()
		for _, i := range idxs {
			errs[i] = l.Insert(keys[i], attrs[i])
		}
		c.endWrite()
	}
	c.mu.Unlock()
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
// each shard's span in one seqlock read section through the ladder's
// batch walker. The groups run in shard order on the calling goroutine,
// whatever the batch size. A nil or empty pred is key membership: it
// answers exactly what QueryKey answers (see core.Ladder.QueryBatchIdxWalk).
//
// The predicate is validated once per shard group — inside the same
// read section as the probes, so a concurrent Restore cannot change
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
// cancellation never tears a group's seqlock read section.
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
	for {
		if err := ctxErr(ctx); err != nil {
			return out, err
		}
		gen := s.gen.Load()
		rt := s.router()
		if rt.n == 1 {
			if s.queryShardGroup(0, nil, keys, pred, out, gen, tr) {
				return out, nil
			}
			continue
		}
		done, err := s.queryGrouped(ctx, rt, keys, pred, out, gen, tr)
		if err != nil {
			return out, err
		}
		if done {
			return out, nil
		}
	}
}

// queryGrouped answers a multi-shard batch query under one grouping pass,
// running the non-empty shard groups in order with direct method calls,
// so steady-state grouped probes allocate nothing. It reports false when
// a racing Restore invalidated the routing and the batch must retry.
func (s *ShardedFilter) queryGrouped(ctx context.Context, rt router, keys []uint64, pred core.Predicate,
	out []bool, gen uint64, tr *trace.Req) (bool, error) {
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
		done = s.queryShardGroup(sh, order[start[sh]:start[sh+1]], keys, pred, out, gen, tr)
	}
	scratchPool.Put(sc)
	return done, err
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

// queryShardGroup answers one shard's span of a batch query in one
// seqlock read section (readCell). The predicate is validated once per
// group — inside the read section, so a concurrent Restore cannot change
// NumAttrs between validation and probing; an invalid predicate yields
// all true, matching Query's conservative no-false-negatives contract.
// The probe body is idempotent (it assigns into out), so a seqlock retry
// simply overwrites the discarded attempt. Untraced (tr nil), the span
// calls are no-ops and the walk depth goes unreported. It reports false
// when a Restore completed after gen was captured and the batch must
// re-route.
func (s *ShardedFilter) queryShardGroup(sh int, idxs []int32, keys []uint64,
	pred core.Predicate, out []bool, gen uint64, tr *trace.Req) bool {
	sp := tr.Start(trace.PhaseShardProbe)
	var pc probeCount
	var walked int
	ok := s.readCell(&s.cells[sh], gen, func(f *core.Ladder) {
		if pred.Validate(f.Params().NumAttrs) != nil {
			markTrue(out, idxs)
			walked = 0
			return
		}
		walked = f.QueryBatchIdxWalk(out, keys, idxs, pred)
	}, &pc)
	n := len(idxs)
	if idxs == nil {
		n = len(keys)
	}
	sp.Attr(trace.AttrShard, int64(sh)).
		Attr(trace.AttrKeys, int64(n)).
		Attr(trace.AttrSeqlockRetries, int64(pc.retries)).
		Attr(trace.AttrSeqlockFallback, int64(pc.fallbacks)).
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

// PredicateFilter extracts a key-only view per shard (Algorithm 2) and
// returns them bundled behind the routing captured at extraction time,
// so a later Restore (which may change the routing seed) cannot make an
// existing view mis-route keys. All shard read locks are held for the
// duration — extraction walks every entry, so optimistic retry would be
// wasteful; the locks exclude writers and Restore, making the view a
// consistent cut of the whole filter.
func (s *ShardedFilter) PredicateFilter(pred core.Predicate) (*KeyView, error) {
	for i := range s.cells {
		s.cells[i].mu.RLock()
	}
	defer func() {
		for i := range s.cells {
			s.cells[i].mu.RUnlock()
		}
	}()
	rt := s.router() // stable while the read locks exclude Restore
	views := make([]*core.LadderKeyView, len(s.cells))
	for i := range s.cells {
		v, err := s.cells[i].f.Load().PredicateFilter(pred)
		if err != nil {
			return nil, err
		}
		views[i] = v
	}
	return &KeyView{rt: rt, views: views}, nil
}

// Freeze snapshots every shard into its immutable bit-packed form
// (vector variants only), taken as a consistent cut under all shard read
// locks and returned behind the routing captured at freeze time.
func (s *ShardedFilter) Freeze() (*FrozenSet, error) {
	for i := range s.cells {
		s.cells[i].mu.RLock()
	}
	defer func() {
		for i := range s.cells {
			s.cells[i].mu.RUnlock()
		}
	}()
	rt := s.router() // stable while the read locks exclude Restore
	shards := make([]*core.FrozenLadder, len(s.cells))
	for i := range s.cells {
		fr, err := s.cells[i].f.Load().Freeze()
		if err != nil {
			return nil, err
		}
		shards[i] = fr
	}
	return &FrozenSet{rt: rt, shards: shards}, nil
}

// GrowthStat is the slice of one shard's state the auto-grow policy
// reads after every mutation batch: how tall its ladder is and how full
// its newest level runs.
type GrowthStat struct {
	Levels     int
	NewestLoad float64
}

// GrowthStats fills dst (grown if short) with one GrowthStat per shard,
// read through the seqlock. It is the policy layer's cheap alternative
// to Stats: no per-level slices are built, so a caller that recycles
// dst probes all shards allocation-free.
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
			}, nil) {
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
	Version     uint64             `json:"version"`
	Grows       int                `json:"grows"`
	MaxLevels   int                `json:"max_levels"`
	ShardLoads  []float64          `json:"shard_loads"`
	ShardDetail []core.LadderStats `json:"shard_detail"`
}

// Stats returns aggregate and per-shard occupancy. Each shard is read
// through the seqlock like a query, so stats scrapes never block (or are
// blocked by) the write path; the counters of one shard are a consistent
// snapshot, while cross-shard skew from in-flight batches remains
// possible, as it always was.
func (s *ShardedFilter) Stats() Stats {
	for {
		gen := s.gen.Load()
		st := Stats{Shards: len(s.cells), Version: s.Version()}
		st.ShardLoads = make([]float64, len(s.cells))
		st.ShardDetail = make([]core.LadderStats, len(s.cells))
		ok := true
		for i := range s.cells {
			var ls core.LadderStats
			if !s.readCell(&s.cells[i], gen, func(f *core.Ladder) {
				// Assignment, not accumulation: a seqlock retry re-runs
				// this probe and must not double-count.
				ls = f.Stats()
			}, nil) {
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
// serialized in a seqlock read section — a writer that overlaps the
// marshal invalidates that shard's payload and it is re-serialized — so
// snapshots no longer hold every shard's read lock and the write path is
// never blocked behind a slow scrape. The consistency trade: each
// shard's payload is individually consistent and a concurrent Restore is
// excluded by the generation fence (the whole snapshot retries, so the
// payload can never mix shards from before and after one), but shards
// are serialized at different instants, so a concurrent mutation batch
// may be captured on any subset of its shards — including a shard it
// reached late but not one it reached early, an interleaving the old
// all-locks point-in-time cut could not produce. Callers that need a
// cut that is exact against in-flight mutations must exclude writers
// themselves, as internal/store's checkpointer does with its write
// barrier.
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
			}, nil) {
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

// parseSnapshot splits a snapshot into per-shard payloads.
func parseSnapshot(data []byte) ([][]byte, error) {
	if len(data) < 16 {
		return nil, errors.New("shard: truncated snapshot")
	}
	if binary.LittleEndian.Uint64(data) != snapshotMagic {
		return nil, errors.New("shard: bad snapshot magic")
	}
	n := binary.LittleEndian.Uint64(data[8:])
	if n == 0 || n > 1<<20 {
		return nil, fmt.Errorf("shard: corrupt shard count %d", n)
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
// index order) and held across the whole content-and-seed swap, with
// every seqlock held odd, so the restore is atomic with respect to
// concurrent operations: no insert can route with the old seed into a new
// shard, no reader sees a mix of old and new shards, and an optimistic
// probe that overlapped the swap fails its version recheck and retries.
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
		s.cells[i].beginWrite()
	}
	for i := range s.cells {
		s.cells[i].f.Store(fresh[i])
	}
	s.seed.Store(fresh[0].Params().Seed)
	s.gen.Add(1) // bumped under all locks; see the gen field
	for i := range s.cells {
		s.cells[i].endWrite()
	}
	for i := range s.cells {
		s.cells[i].mu.Unlock()
	}
	s.version.Add(1)
	return nil
}

// FromSnapshot builds a new sharded filter from a Snapshot payload. The
// shard count and per-shard parameters come from the snapshot; workers
// follows the same default as Options.Workers.
func FromSnapshot(data []byte, workers int) (*ShardedFilter, error) {
	parts, err := parseSnapshot(data)
	if err != nil {
		return nil, err
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		return nil, fmt.Errorf("shard: invalid worker count %d", workers)
	}
	filters, err := decodeShards(parts)
	if err != nil {
		return nil, err
	}
	s := &ShardedFilter{cells: make([]cell, len(parts)), workers: workers}
	for i, f := range filters {
		s.cells[i].f.Store(f)
	}
	s.seed.Store(s.cells[0].f.Load().Params().Seed)
	return s, nil
}
