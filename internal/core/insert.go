package core

import (
	"slices"

	"ccf/internal/bloom"
)

// Insert adds a row with the given key and attribute values. attrs must
// have exactly NumAttrs elements. Rows whose sketched form (κ, α) is
// already present are deduplicated: the paper's multiset experiments count
// distinct (key, attribute) pairs (§10.1), and Table 1's sizing counts
// distinct attribute vectors per key.
//
// A chained insert of the same key as the previous insert resumes that
// insert's chain walk instead of restarting it (see chainRun), so loading
// a key's n rows in a row costs O(n) pair visits rather than Algorithm
// 4's O(n²/d). The tables, errors and counters are exactly those of the
// per-row walk.
//
// Steady-state inserts are allocation-free: the kick-chain carrier, the
// attribute staging vector and the chain-run cache are per-filter scratch
// buffers (bucket.go), so only the Bloom-sketch variants allocate, and
// only when a new entry needs its own sketch.
//
// Errors: ErrAttrCount for a bad vector; ErrFull when a cuckoo insertion
// exhausts its kicks (the filter is unchanged); ErrChainLimit when
// VariantChained discards a row at Lmax (queries for the row still return
// true, preserving no-false-negatives).
func (f *Filter) Insert(key uint64, attrs []uint64) error {
	err := f.insert(key, attrs)
	if err == ErrChainLimit {
		f.discarded++
	}
	return err
}

// insert is Insert without the discard count, which Ladder.Insert keeps
// itself: a row it retries on a new level is stored, not discarded.
func (f *Filter) insert(key uint64, attrs []uint64) error {
	if len(attrs) != f.p.NumAttrs {
		return ErrAttrCount
	}
	fp := f.fingerprint(key)
	home := f.homeBucket(key)
	var err error
	switch f.p.Variant {
	case VariantPlain:
		err = f.insertPlain(fp, home, attrs)
	case VariantChained:
		err = f.insertChained(key, fp, home, attrs)
	case VariantBloom:
		err = f.insertBloom(fp, home, attrs)
	case VariantMixed:
		err = f.insertMixed(fp, home, attrs)
	}
	if err == nil {
		f.rows++
	}
	return err
}

// attrVector computes the row's attribute fingerprint vector into dst.
func (f *Filter) attrVector(attrs []uint64, dst []uint16) {
	for j, v := range attrs {
		dst[j] = f.attrFingerprint(j, v)
	}
}

// vectorAt reports whether the entry at idx holds exactly the fingerprint
// vector vec (and is a live, plain vector entry). Converted entries have
// no vector; tombstoned entries (§6.2) can never match again, so treating
// one as "already present" would silently drop a row.
func (f *Filter) vectorAt(idx int, vec []uint16) bool {
	if f.flags[idx]&(flagConverted|flagTombstone) != 0 {
		return false
	}
	base := idx * f.nattr
	for j, v := range vec {
		if f.attrs[base+j] != v {
			return false
		}
	}
	return true
}

// bucketHasVector reports whether the bucket stores (κ, α).
func (f *Filter) bucketHasVector(bucket uint32, fp uint16, vec []uint16) bool {
	base := int(bucket) * f.bsz
	for j := 0; j < f.bsz; j++ {
		if f.fps[base+j] == fp && f.vectorAt(base+j, vec) {
			return true
		}
	}
	return false
}

// pairHasVector reports whether the pair already stores (κ, α).
func (f *Filter) pairHasVector(l1, l2 uint32, fp uint16, vec []uint16) bool {
	if f.bucketHasVector(l1, fp, vec) {
		return true
	}
	return l2 != l1 && f.bucketHasVector(l2, fp, vec)
}

// insertPlain is the baseline: every distinct (κ, α) occupies an entry in
// the key's single bucket pair; the pair caps the key at 2b copies (§4.3).
func (f *Filter) insertPlain(fp uint16, home uint32, attrs []uint64) error {
	c := f.resetCarried()
	c.fp = fp
	f.attrVector(attrs, c.attr)
	l1, l2, _ := f.pairBuckets(home, fp)
	if f.pairHasVector(l1, l2, fp, c.attr) {
		return nil
	}
	if !f.placeWithKicks(l1, l2, c) {
		return ErrFull
	}
	return nil
}

// insertChained implements Algorithm 4: walk the chain of bucket pairs
// until one holds fewer than d copies of κ, then cuckoo-insert there. A
// row deduplicates against any pair walked before it is placed.
//
// The walk lives in the filter's chainRun. A key other than the previous
// insert's starts a fresh walk at its first pair; a repeat of that key
// checks its vector against every pair already walked and carries on
// from the pair where the walk stopped.
func (f *Filter) insertChained(key uint64, fp uint16, home uint32, attrs []uint64) error {
	c := f.resetCarried()
	c.fp = fp
	f.attrVector(attrs, c.attr)
	r := &f.scratch.run
	if r.live && r.key == key {
		if r.hasVector(c.attr) {
			return nil
		}
	} else {
		r.start(f, key, fp, home)
		if f.scanPair(r, c.attr) {
			return nil
		}
	}
	for {
		if r.count < f.p.MaxDupes {
			l1, l2 := r.seq.buckets()
			// Cache the vector first: the kicks swap c's contents away.
			r.vecs = append(r.vecs, c.attr...)
			if !f.placeWithKicks(l1, l2, c) {
				r.live = false
				return ErrFull
			}
			r.count++
			f.recordChainDepth(r.seq.pairs)
			return nil
		}
		if !r.seq.advance() {
			return ErrChainLimit
		}
		if f.scanPair(r, c.attr) {
			return nil
		}
	}
}

// chainRun is the chained insert's walk, kept in the mutation scratch
// across consecutive inserts of one key. It holds the walk's position,
// the current pair's count of κ and the attribute vector of every live
// κ entry in every pair walked, which is all a later row of the key
// needs from the pairs behind it: their counts were already d or more,
// and a row is a duplicate wherever its vector sits. The cache stays
// exact while the run lasts:
//   - only the run's own inserts touch the filter, and each adds one
//     entry of κ, in the current pair, counted and cached as it lands;
//   - a kick moves an entry only to the other bucket of its own pair, so
//     no pair gains or loses an entry of κ through kicks;
//   - a failed placement rolls back, and it ends the run anyway.
//
// An insert of any other key starts a fresh run, and UnmarshalBinary
// builds a fresh filter, so nothing else can change a pair behind a live
// run.
type chainRun struct {
	live  bool
	key   uint64
	seq   chainSeq // the walk, at the pair the next row places into
	count int      // entries of κ in seq's current pair
	vecs  []uint16 // vectors of κ's live entries in the pairs walked, nattr each
}

// maxRunVecs bounds the vector cache a run hands to the next one, at
// 1 MiB of fingerprints. A walk is bounded by MaxChain and hardChainCap,
// so this only stops one very deep chain from pinning a large buffer.
const maxRunVecs = 1 << 19

// start begins a fresh walk for key at its first pair.
func (r *chainRun) start(f *Filter, key uint64, fp uint16, home uint32) {
	r.live = true
	r.key = key
	spill := r.seq.spill[:0]
	f.initChainSeq(&r.seq, fp, home)
	r.seq.spill = spill
	r.count = 0
	if cap(r.vecs) > maxRunVecs {
		r.vecs = nil
	}
	r.vecs = r.vecs[:0]
}

// hasVector reports whether any pair walked so far stores (κ, vec).
func (r *chainRun) hasVector(vec []uint16) bool {
	if len(vec) == 1 {
		return slices.Contains(r.vecs, vec[0])
	}
	for i := 0; i < len(r.vecs); i += len(vec) {
		if slices.Equal(r.vecs[i:i+len(vec)], vec) {
			return true
		}
	}
	return false
}

// scanPair reads the run's current pair in one pass per bucket: it sets
// the pair's count of κ, caches the vectors of its live κ entries and
// reports whether one of them is vec. A degenerate pair (ℓ = ℓ′) is one
// bucket, read once.
func (f *Filter) scanPair(r *chainRun, vec []uint16) bool {
	l1, l2 := r.seq.buckets()
	r.count = 0
	found := f.scanBucket(r, l1, vec)
	if l2 != l1 && f.scanBucket(r, l2, vec) {
		found = true
	}
	return found
}

func (f *Filter) scanBucket(r *chainRun, bucket uint32, vec []uint16) bool {
	fp := r.seq.fp
	base := int(bucket) * f.bsz
	found := false
	for j := 0; j < f.bsz; j++ {
		idx := base + j
		if f.fps[idx] != fp {
			continue
		}
		r.count++
		// Converted (Mixed only) and tombstoned entries hold no vector a
		// row could duplicate; see vectorAt.
		if f.flags[idx]&(flagConverted|flagTombstone) != 0 {
			continue
		}
		a := f.attrs[idx*f.nattr : (idx+1)*f.nattr]
		if slices.Equal(a, vec) {
			found = true
		}
		r.vecs = append(r.vecs, a...)
	}
	return found
}

// recordChainDepth tallies which chain pair an insertion landed in.
func (f *Filter) recordChainDepth(pairs int) {
	idx := pairs - 1
	if idx >= len(f.chainDepths) {
		idx = len(f.chainDepths) - 1
	}
	f.chainDepths[idx]++
}

// findLiveFpInPair returns the flat index of a live (non-tombstoned) entry
// holding κ in the pair, or -1. Tombstoned entries are skipped: they
// belong to predicate views and can never match a query again, so reusing
// one as "the existing entry" for a key would absorb new rows into a
// sketch that always answers false — a latent false negative.
func (f *Filter) findLiveFpInPair(l1, l2 uint32, fp uint16) int {
	if idx := f.findLiveFpInBucket(l1, fp); idx >= 0 {
		return idx
	}
	if l2 != l1 {
		return f.findLiveFpInBucket(l2, fp)
	}
	return -1
}

func (f *Filter) findLiveFpInBucket(bucket uint32, fp uint16) int {
	base := int(bucket) * f.bsz
	for j := 0; j < f.bsz; j++ {
		idx := base + j
		if f.fps[idx] == fp && f.flags[idx]&flagTombstone == 0 {
			return idx
		}
	}
	return -1
}

// insertBloom implements the Bloom attribute sketch variant (§5.2):
// duplicate keys share one entry, whose Bloom filter accumulates their
// (attribute, value) pairs. Occupancy therefore matches a plain cuckoo
// filter over distinct keys (Table 1).
func (f *Filter) insertBloom(fp uint16, home uint32, attrs []uint64) error {
	l1, l2, _ := f.pairBuckets(home, fp)
	if existing := f.findLiveFpInPair(l1, l2, fp); existing >= 0 {
		bf := f.sketchAt(f.sketch[existing])
		for j, v := range attrs {
			bf.Add(f.bloomElemRaw(j, v))
		}
		return nil
	}
	bf := bloom.NewWithSalt(f.p.BloomBits, f.p.BloomHashes, f.p.Seed^saltEntryBf)
	for j, v := range attrs {
		bf.Add(f.bloomElemRaw(j, v))
	}
	c := f.resetCarried()
	c.fp = fp
	c.sketch = f.addSketch(bf)
	if !f.placeWithKicks(l1, l2, c) {
		f.popSketch() // rollback restored c.sketch as the arena's last ref
		return ErrFull
	}
	return nil
}

// insertMixed implements Bloom conversion (§6.1, Algorithm 3): vector
// entries until a pair holds d copies of κ, then the d vectors are rehashed
// into one shared Bloom filter and later duplicates join it. Conversion
// never fails.
func (f *Filter) insertMixed(fp uint16, home uint32, attrs []uint64) error {
	l1, l2, _ := f.pairBuckets(home, fp)

	// An existing converted group absorbs the row; tombstoned members of a
	// view clone never reach here (clones are not inserted into), but skip
	// them anyway so a tombstoned entry can never resurrect a group.
	if idx := f.findConvertedInPair(l1, l2, fp); idx >= 0 {
		grp := f.sketchAt(f.sketch[idx])
		for j, v := range attrs {
			grp.Add(f.bloomElemFp(j, f.attrFingerprint(j, v)))
		}
		return nil
	}

	c := f.resetCarried()
	c.fp = fp
	f.attrVector(attrs, c.attr)
	if f.pairHasVector(l1, l2, fp, c.attr) {
		return nil
	}
	if f.countFpInPair(l1, l2, fp) < f.p.MaxDupes {
		if f.placeWithKicks(l1, l2, c) {
			return nil
		}
		return ErrFull
	}
	f.convert(l1, l2, fp, c.attr)
	return nil
}

// findConvertedInPair returns the index of a live converted entry for κ in
// the pair, or -1.
func (f *Filter) findConvertedInPair(l1, l2 uint32, fp uint16) int {
	if idx := f.findConvertedInBucket(l1, fp); idx >= 0 {
		return idx
	}
	if l2 != l1 {
		return f.findConvertedInBucket(l2, fp)
	}
	return -1
}

func (f *Filter) findConvertedInBucket(bucket uint32, fp uint16) int {
	base := int(bucket) * f.bsz
	for j := 0; j < f.bsz; j++ {
		idx := base + j
		if f.fps[idx] == fp &&
			f.flags[idx]&flagConverted != 0 && f.flags[idx]&flagTombstone == 0 {
			return idx
		}
	}
	return -1
}

// convert rehashes the d vector entries for κ in the pair (plus the
// incoming vector newVec) into a single Bloom filter sized per Algorithm 3,
// marking the entries as converted. The entries keep their slots; the
// shared filter lives in the sketch arena and the entries reference it by
// index.
func (f *Filter) convert(l1, l2 uint32, fp uint16, newVec []uint16) {
	grp := bloom.NewWithSalt(
		f.p.ConversionBloomBits(),
		f.p.ConversionBloomHashes(),
		f.p.Seed^saltEntryBf^uint64(fp),
	)
	ref := f.addSketch(grp)
	f.convertBucket(l1, fp, grp, ref)
	if l2 != l1 {
		f.convertBucket(l2, fp, grp, ref)
	}
	for j, v := range newVec {
		grp.Add(f.bloomElemFp(j, v))
	}
	f.converted++
}

func (f *Filter) convertBucket(bucket uint32, fp uint16, grp *bloom.Filter, ref int32) {
	base := int(bucket) * f.bsz
	for j := 0; j < f.bsz; j++ {
		idx := base + j
		if f.fps[idx] != fp {
			continue
		}
		abase := idx * f.nattr
		for k := 0; k < f.nattr; k++ {
			grp.Add(f.bloomElemFp(k, f.attrs[abase+k]))
			f.attrs[abase+k] = 0
		}
		f.flags[idx] |= flagConverted
		f.sketch[idx] = ref
	}
}

// Delete removes the row (key, attrs) from a VariantPlain filter, enabling
// the multiset deletion cuckoo filters support (§4.3). Other variants
// return ErrUnsupported: Bloom sketches cannot un-OR attribute bits, and
// removing a chained entry could open a gap in its chain, which would
// violate the no-false-negative guarantee (§6.2).
func (f *Filter) Delete(key uint64, attrs []uint64) error {
	if f.p.Variant != VariantPlain {
		return ErrUnsupported
	}
	if len(attrs) != f.p.NumAttrs {
		return ErrAttrCount
	}
	fp := f.fingerprint(key)
	l1, l2, _ := f.pairBuckets(f.homeBucket(key), fp)
	vec := f.scratch.vec
	f.attrVector(attrs, vec)
	idx := f.findVectorInBucket(l1, fp, vec)
	if idx < 0 && l2 != l1 {
		idx = f.findVectorInBucket(l2, fp, vec)
	}
	if idx < 0 {
		return ErrNotFound
	}
	f.clearEntry(idx)
	f.rows--
	return nil
}

func (f *Filter) findVectorInBucket(bucket uint32, fp uint16, vec []uint16) int {
	base := int(bucket) * f.bsz
	for j := 0; j < f.bsz; j++ {
		if f.fps[base+j] == fp && f.vectorAt(base+j, vec) {
			return base + j
		}
	}
	return -1
}

func (f *Filter) clearEntry(idx int) {
	f.fps[idx] = 0
	f.flags[idx] = 0
	if f.attrs != nil {
		base := idx * f.nattr
		for j := 0; j < f.nattr; j++ {
			f.attrs[base+j] = 0
		}
	}
	if f.sketch != nil {
		// The arena slot, if any, becomes unreachable; the arena is
		// grow-only because only the sketch-free Plain variant deletes.
		f.sketch[idx] = sketchNone
	}
	f.occupied--
}
