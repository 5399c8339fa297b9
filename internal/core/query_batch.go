package core

import (
	"math/bits"
	"sync"

	"ccf/internal/hashing"
	"ccf/internal/simd"
)

// This file is the batched probe pipeline. A scalar Query serializes its
// memory accesses: hash the key, load the bucket, miss, stall. When a
// caller has a whole batch of independent keys (selection pushdown probes
// one filter per row, §3), those stalls are wasted parallelism — modern
// cores can keep a dozen cache misses in flight, but only if the loads are
// issued before any of their results is consumed. The batch entry points
// below split the probe into phases over fixed-size tiles, each phase a
// kernel from internal/simd (AVX2 when the hardware has it, the scalar
// reference otherwise; see -probe-engine):
//
//	runs     fold each run of equal consecutive keys (a fact table's
//	         rows of one join key) into one probe: one key per run, and
//	         for each tile position the run that holds it
//	phase 1  hash every run's key: fingerprint, home bucket, alt bucket
//	         (pure ALU work the vector engine runs 4 keys wide)
//	phase 2  read both candidate buckets' fingerprints in place and
//	         compare them against each run's broadcast fingerprint,
//	         yielding an exact per-slot hit mask per bucket. The loads
//	         depend only on phase 1's indexes, never on each other, and
//	         the hardware kernel prefetches the buckets a fixed distance
//	         ahead, so a tile pays for its cache misses concurrently; on
//	         a hit it also prefetches the first hit slot's flags byte
//	         and attribute vector
//	settle   runs with an empty mask pair (most negative probes) resolve
//	         with no further access; the rest test exactly the slots
//	         their masks name, from lines phase 2 already requested
//	scatter  copy each run's answer to every position it holds
//
// The same phase structure batches lookups in Cuckoo-GPU and the
// memory-level-parallel hash-probe literature. Bucket sizes above
// simd.MaxSlots run the scalar probe per run. An answer depends only on
// the key, the compiled predicate and the table, and no mutation may run
// beside a batch, so each position of a run gets what its own probe would.
//
// Before the first tile the predicate is compiled once for the whole
// batch (compiledPred). The settle then ends a key in its first pair
// when the pair holds no copy of κ, holds a matching entry, or (chained)
// holds fewer than d copies; only a full, unmatched chained pair walks
// on to pair 2 (Algorithm 5).

// probeTile is the batch pipeline's tile size: large enough to keep many
// misses in flight, small enough that the scratch stays L1/L2-resident
// (7.5 KB of arrays).
const probeTile = 256

// rid holds a run index in a byte: this fails to compile if probeTile > 256.
const _ uint8 = probeTile - 1

// probeBatch is the reusable per-call scratch of one batch probe. It
// cycles through a pool so steady-state batched queries allocate nothing;
// unlike the filter's mutation scratch it is not per-filter state, because
// batch queries run concurrently with each other. The per-run arrays are
// what the simd kernels stream through: keys (one key per run of the
// tile, so the hash kernel always sees a contiguous array), fpw (each
// fingerprint broadcast into all four 16-bit lanes, the mask kernel's
// probe operand), m1/m2 (the per-slot hit masks of the home and alt
// bucket) and ans (the settled answer). rid maps each tile position to
// its run. cp is the batch's compiled predicate.
type probeBatch struct {
	keys [probeTile]uint64
	fp   [probeTile]uint16
	fpw  [probeTile]uint64
	l1   [probeTile]uint32
	l2   [probeTile]uint32
	m1   [probeTile]uint8
	m2   [probeTile]uint8
	rid  [probeTile]uint8
	ans  [probeTile]bool
	cp   compiledPred
}

var probePool = sync.Pool{New: func() any { return new(probeBatch) }}

// QueryBatchInto answers Query for every key under one predicate, writing
// results into dst (grown if its capacity is short) and returning it. The
// predicate is validated once; like Query, an invalid predicate
// conservatively yields all true. A nil or empty pred is key membership:
// since only KeyView clones carry tombstones, it answers what QueryKey
// answers. Equal adjacent keys are probed once and share the answer.
// Safe for concurrent readers.
func (f *Filter) QueryBatchInto(dst []bool, keys []uint64, pred Predicate) []bool {
	out := boolResults(dst, len(keys))
	if len(keys) == 0 {
		return out
	}
	if pred.Validate(f.p.NumAttrs) != nil {
		for i := range out {
			out[i] = true
		}
		return out
	}
	f.QueryBatchIdx(out, keys, nil, pred)
	return out
}

// QueryBatchIdx is the scatter/gather form of QueryBatchInto used by the
// sharded grouped probe: for each i in idxs it answers keys[i] into
// out[i]; a nil idxs means all keys in order. pred must already have
// passed Validate for this filter's NumAttrs (batch callers validate once
// per group). out must be at least as long as keys. Equal keys adjacent
// in idxs order within a 256-key tile are probed once.
func (f *Filter) QueryBatchIdx(out []bool, keys []uint64, idxs []int32, pred Predicate) {
	pb := probePool.Get().(*probeBatch)
	pb.cp.compile(f, pred)
	n := tileCount(keys, idxs)
	for base := 0; base < n; base += probeTile {
		t := min(probeTile, n-base)
		ti := sliceIdx(idxs, base, t)
		runs := f.hashTile(pb, keys, ti, base, t)
		f.maskTile(pb, runs)
		f.queryTile(pb, runs)
		pb.scatter(out, ti, base, t)
	}
	pb.cp.pred = nil // the pool must not keep the caller's value lists live
	probePool.Put(pb)
}

// boolResults returns dst resized to n, reusing its backing array when
// large enough.
func boolResults(dst []bool, n int) []bool {
	if cap(dst) < n {
		return make([]bool, n)
	}
	return dst[:n]
}

func tileCount(keys []uint64, idxs []int32) int {
	if idxs != nil {
		return len(idxs)
	}
	return len(keys)
}

// sliceIdx returns the tile's window of idxs, or nil in contiguous mode.
func sliceIdx(idxs []int32, base, t int) []int32 {
	if idxs == nil {
		return nil
	}
	return idxs[base : base+t]
}

// hashTile folds the tile's runs of equal consecutive keys into pb.keys,
// one key per run, records each position's run in pb.rid, and returns
// the run count. The fold has no data-dependent branch: every position
// stores its key at the current run, which a key unequal to the previous
// one first advances. Phase 1 follows: the HashFill kernel derives
// fingerprint, broadcast fingerprint word, home bucket, and alt bucket
// for every run. The pre-mixed salts cost two Mix64 calls per tile — the
// kernel's per-key work is then exactly two splitmix64 finalizers and an
// altOff memo lookup.
func (f *Filter) hashTile(pb *probeBatch, keys []uint64, ti []int32, base, t int) int {
	var r uint8
	rid := pb.rid[:t]
	if ti == nil {
		kv := keys[base : base+len(rid)]
		prev := kv[0]
		for i, k := range kv {
			r += neq(k, prev)
			pb.keys[r], rid[i], prev = k, r, k
		}
	} else {
		ti = ti[:len(rid)] // so rid[i] needs no bounds check
		prev := keys[ti[0]]
		for i, idx := range ti {
			k := keys[idx]
			r += neq(k, prev)
			pb.keys[r], rid[i], prev = k, r, k
		}
	}
	n := int(r) + 1
	seedFp := hashing.Salt(f.p.Seed ^ saltFp)
	seedIdx := hashing.Salt(f.p.Seed ^ saltIndex)
	simd.HashFill(pb.keys[:n], seedFp, seedIdx, f.fpMask, f.mask, f.altOff,
		pb.fp[:], pb.fpw[:], pb.l1[:], pb.l2[:], n)
	return n
}

// neq is 1 when a != b, else 0: a compare and a SETNE, no branch.
func neq(a, b uint64) uint8 {
	var d uint8
	if a != b {
		d = 1
	}
	return d
}

// maskTile is phase 2: the MaskSlots kernel writes the exact per-slot
// hit masks of both candidate buckets for each of the tile's n runs.
// Larger buckets get no masks: their resolvers scan.
func (f *Filter) maskTile(pb *probeBatch, n int) {
	if f.bsz <= simd.MaxSlots {
		simd.MaskSlots(f.fps, f.flags, f.attrs, f.bsz, f.nattr,
			pb.l1[:], pb.l2[:], pb.fpw[:], pb.m1[:], pb.m2[:], n)
	}
}

// scatter copies each run's answer to every tile position the run holds,
// at the position's result index.
func (pb *probeBatch) scatter(out []bool, ti []int32, base, t int) {
	rid := pb.rid[:t]
	if ti == nil {
		o := out[base : base+len(rid)]
		for i, r := range rid {
			o[i] = pb.ans[r]
		}
		return
	}
	ti = ti[:len(rid)] // so ti[i] needs no bounds check
	for i, r := range rid {
		out[ti[i]] = pb.ans[r]
	}
}

// queryTile is the settle phase of the predicate probe: it settles each
// of the tile's n runs from its first pair's hit masks into pb.ans. An
// empty mask pair resolves the run with no slot-array access at all
// (false for every variant: a chained walk with 0 < d copies ends at its
// first pair); otherwise the masks name exactly the slots to test
// against the compiled predicate.
func (f *Filter) queryTile(pb *probeBatch, n int) {
	if f.bsz > simd.MaxSlots {
		for i := 0; i < n; i++ {
			pb.ans[i] = f.queryFp(pb.fp[i], pb.l1[i], pb.cp.pred)
		}
		return
	}
	for i := 0; i < n; i++ {
		if pb.m1[i]|pb.m2[i] == 0 {
			pb.ans[i] = false
			continue
		}
		ans, done := f.settlePair(pb.l1[i], pb.l2[i], pb.m1[i], pb.m2[i], &pb.cp)
		if !done {
			ans = f.walkChain(pb.fp[i], pb.l1[i], &pb.cp)
		}
		pb.ans[i] = ans
	}
}

// settlePair is one pair step of the batch probe, from the pair's slot
// masks: a satisfying entry answers true; otherwise the pair variants
// answer false, and a chained key answers false unless the pair holds d
// copies of κ, in which case done is false and the walk moves on to the
// next pair (Algorithm 5).
func (f *Filter) settlePair(l1, l2 uint32, m1, m2 uint8, cp *compiledPred) (ans, done bool) {
	if l2 == l1 {
		m2 = 0 // a degenerate pair counts each slot once
	}
	if f.slotsMatch(l1, m1, cp) || f.slotsMatch(l2, m2, cp) {
		return true, true
	}
	return false, f.p.Variant != VariantChained ||
		bits.OnesCount8(m1)+bits.OnesCount8(m2) < f.p.MaxDupes
}

// walkChain continues a chained key's walk past a full, unmatched first
// pair; exhausting the chain budget answers true, as in queryChained.
func (f *Filter) walkChain(fp uint16, home uint32, cp *compiledPred) bool {
	var seq chainSeq
	f.initChainSeq(&seq, fp, home)
	for seq.advance() {
		l1, l2 := seq.buckets()
		m1, m2 := simd.SlotMask(f.fps, f.bsz, l1, fp), simd.SlotMask(f.fps, f.bsz, l2, fp)
		if ans, done := f.settlePair(l1, l2, m1, m2, cp); done {
			return ans
		}
	}
	return true
}

// slotsMatch reports whether any slot of the bucket flagged in mask
// satisfies the compiled predicate. Live vector entries test the bitmaps;
// every other entry (tombstoned, Bloom, converted group), and every entry
// of a predicate compiled raw, goes through entryMatches and the raw
// predicate.
func (f *Filter) slotsMatch(bucket uint32, mask uint8, cp *compiledPred) bool {
	base := int(bucket) * f.bsz
	for mask != 0 {
		idx := base + bits.TrailingZeros8(mask)
		mask &= mask - 1
		if !cp.raw && f.flags[idx]&(flagTombstone|flagConverted) == 0 {
			if cp.matchVector(f.attrs[idx*f.nattr : (idx+1)*f.nattr]) {
				return true
			}
		} else if f.entryMatches(idx, cp.pred) {
			return true
		}
	}
	return false
}
