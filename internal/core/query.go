package core

// Query reports whether the filter may contain a row with the given key
// whose attributes satisfy pred (Algorithm 1). A nil or empty predicate is
// a key-only query. Query never returns a false negative: if a matching row
// was inserted (or discarded at the chain limit), the result is true.
//
// Queries are allocation-free and safe for concurrent readers: the probe
// loops walk the packed bucket storage inline (bucket.go) and never touch
// the filter's mutation scratch.
func (f *Filter) Query(key uint64, pred Predicate) bool {
	if err := pred.Validate(f.p.NumAttrs); err != nil {
		// An invalid predicate cannot have been inserted; stay conservative
		// and let the caller discover the programming error via QueryErr.
		return true
	}
	return f.QueryUnchecked(key, pred)
}

// QueryErr is Query with predicate validation errors surfaced.
func (f *Filter) QueryErr(key uint64, pred Predicate) (bool, error) {
	if err := pred.Validate(f.p.NumAttrs); err != nil {
		return true, err
	}
	return f.QueryUnchecked(key, pred), nil
}

// QueryUnchecked is Query without the per-call predicate validation:
// batch callers (internal/shard) validate once per batch and fan out, so
// the per-key path is just hashing and bucket probes. pred must already
// have passed Predicate.Validate for this filter's NumAttrs.
func (f *Filter) QueryUnchecked(key uint64, pred Predicate) bool {
	return f.queryFp(f.fingerprint(key), f.homeBucket(key), pred)
}

// queryFp is the scalar probe of a hashed key: κ and its home bucket.
func (f *Filter) queryFp(fp uint16, home uint32, pred Predicate) bool {
	if f.p.Variant == VariantChained {
		return f.queryChained(fp, home, pred)
	}
	return f.queryPair(fp, home, pred)
}

// QueryKey reports whether any row with the key may be present. For every
// variant only the key's first bucket pair needs checking: Lemma 2
// guarantees a chained key keeps d copies in its first pair, so "there is
// no penalty for probing more buckets at query time" (§7.1).
func (f *Filter) QueryKey(key uint64) bool {
	fp := f.fingerprint(key)
	l1, l2, _ := f.pairBuckets(f.homeBucket(key), fp)
	if f.bucketHasFp(l1, fp) {
		return true
	}
	return l2 != l1 && f.bucketHasFp(l2, fp)
}

// bucketMatch reports whether the bucket holds an entry for κ satisfying
// pred.
func (f *Filter) bucketMatch(bucket uint32, fp uint16, pred Predicate) bool {
	base := int(bucket) * f.bsz
	for j := 0; j < f.bsz; j++ {
		if f.fps[base+j] == fp && f.entryMatches(base+j, pred) {
			return true
		}
	}
	return false
}

// queryPair checks the key's single bucket pair (Plain, Bloom, Mixed).
func (f *Filter) queryPair(fp uint16, home uint32, pred Predicate) bool {
	l1, l2, _ := f.pairBuckets(home, fp)
	if f.bucketMatch(l1, fp, pred) {
		return true
	}
	return l2 != l1 && f.bucketMatch(l2, fp, pred)
}

// entryMatches dispatches predicate matching on the entry's sketch type.
// Tombstoned entries (predicate views, §6.2) never match but still count
// toward chain continuation.
func (f *Filter) entryMatches(idx int, pred Predicate) bool {
	if f.flags[idx]&flagTombstone != 0 {
		return false
	}
	if len(pred) == 0 {
		return true
	}
	switch {
	case f.p.Variant == VariantBloom:
		return f.matchBloomEntry(idx, pred)
	case f.flags[idx]&flagConverted != 0:
		return f.matchGroup(f.sketch[idx], pred)
	default:
		return f.matchVector(idx, pred)
	}
}

// bucketCountMatch returns the number of copies of κ in the bucket and
// whether any of them satisfies pred, in one pass.
func (f *Filter) bucketCountMatch(bucket uint32, fp uint16, pred Predicate) (int, bool) {
	base := int(bucket) * f.bsz
	count := 0
	match := false
	for j := 0; j < f.bsz; j++ {
		idx := base + j
		if f.fps[idx] != fp {
			continue
		}
		count++
		if !match && f.entryMatches(idx, pred) {
			match = true
		}
	}
	return count, match
}

// queryChained implements Algorithm 5: walk the chain; a pair holding
// exactly d copies of κ with no match defers to the next pair; fewer copies
// terminate with false; exhausting the chain budget with full pairs returns
// true ("the query will return true regardless of the predicate", §6.2).
// Tombstoned entries (predicate views) count toward the d-copy chain
// continuation test but never match, exactly the semantics §6.2 requires.
func (f *Filter) queryChained(fp uint16, home uint32, pred Predicate) bool {
	var seq chainSeq
	f.initChainSeq(&seq, fp, home)
	for {
		l1, l2 := seq.buckets()
		count, match := f.bucketCountMatch(l1, fp, pred)
		if l2 != l1 {
			c2, m2 := f.bucketCountMatch(l2, fp, pred)
			count += c2
			match = match || m2
		}
		if match {
			return true
		}
		if count < f.p.MaxDupes {
			return false
		}
		if !seq.advance() {
			// Lmax (or the hard cap) reached with a full pair: conservative
			// true, covering rows discarded at insertion time (Theorem 3).
			return true
		}
	}
}

// ContainsRow reports whether the exact row (key, attrs) may be present:
// a Query whose predicate pins every attribute.
func (f *Filter) ContainsRow(key uint64, attrs []uint64) (bool, error) {
	if len(attrs) != f.p.NumAttrs {
		return true, ErrAttrCount
	}
	pred := make(Predicate, len(attrs))
	for i, v := range attrs {
		pred[i] = Eq(i, v)
	}
	return f.Query(key, pred), nil
}

// ChainDepthHistogram returns, for the chained variant, how many accepted
// insertions landed in chain pair i+1. Index 0 counts rows stored in their
// key's first bucket pair; deeper bins indicate duplicate skew. The last
// bin accumulates all deeper landings.
func (f *Filter) ChainDepthHistogram() []int {
	out := make([]int, len(f.chainDepths))
	copy(out, f.chainDepths[:])
	return out
}

// CountFingerprint returns the number of entries holding the key's
// fingerprint in its first bucket pair. It backs the FPR estimators (§7).
func (f *Filter) CountFingerprint(key uint64) int {
	fp := f.fingerprint(key)
	l1, l2, _ := f.pairBuckets(f.homeBucket(key), fp)
	return f.countFpInPair(l1, l2, fp)
}

// PairFill returns the number of occupied entries in the key's first bucket
// pair (the D of Eq. 4).
func (f *Filter) PairFill(key uint64) int {
	fp := f.fingerprint(key)
	l1, l2, _ := f.pairBuckets(f.homeBucket(key), fp)
	n := f.bucketFill(l1)
	if l2 != l1 {
		n += f.bucketFill(l2)
	}
	return n
}

func (f *Filter) bucketFill(bucket uint32) int {
	base := int(bucket) * f.bsz
	n := 0
	for j := 0; j < f.bsz; j++ {
		if f.fps[base+j] != 0 {
			n++
		}
	}
	return n
}
