package core

// KeyView is the result of a predicate-only query (Algorithm 2): an
// approximate membership filter for the set of keys that have at least one
// row satisfying the predicate, S_P. It is immutable.
//
// For the Bloom and Mixed variants the view is a plain cuckoo filter of key
// fingerprints with non-matching entries erased, costing |κ| bits per entry.
// For the Chained variant entries cannot be erased — a gap in a chain would
// make queries stop probing early and yield false negatives — so
// non-matching entries keep their fingerprint and carry a tombstone bit,
// costing |κ|+1 bits per entry (§6.2).
type KeyView struct {
	f       *Filter
	bitsPer int
	variant Variant
}

// PredicateFilter returns a KeyView for pred (Algorithm 2). The receiver is
// not modified.
func (f *Filter) PredicateFilter(pred Predicate) (*KeyView, error) {
	if err := pred.Validate(f.p.NumAttrs); err != nil {
		return nil, err
	}
	clone := f.shallowKeyClone()
	switch f.p.Variant {
	case VariantChained:
		// Tombstone non-matching entries; fingerprints stay for chain
		// integrity.
		for idx := range clone.fps {
			if clone.fps[idx] == 0 {
				continue
			}
			if !f.entryMatches(idx, pred) {
				clone.flags[idx] |= flagTombstone
			}
		}
		return &KeyView{f: clone, bitsPer: f.p.KeyBits + 1, variant: f.p.Variant}, nil
	default:
		// Erase non-matching entries outright; the result is an ordinary
		// cuckoo filter of key fingerprints.
		for idx := range clone.fps {
			if clone.fps[idx] == 0 {
				continue
			}
			if !f.entryMatches(idx, pred) {
				clone.fps[idx] = 0
				clone.flags[idx] = 0
				clone.occupied--
			}
		}
		return &KeyView{f: clone, bitsPer: f.p.KeyBits, variant: f.p.Variant}, nil
	}
}

// shallowKeyClone copies the fingerprint table, flags and geometry but not
// the attribute sketches: a KeyView answers key membership only. The clone
// shares no mutable state with the original. For the chained variant the
// clone keeps chain parameters so walks behave identically.
func (f *Filter) shallowKeyClone() *Filter {
	clone := &Filter{
		p:        f.p,
		m:        f.m,
		mask:     f.mask,
		fpMask:   f.fpMask,
		attrMask: f.attrMask,
		altOff:   f.altOff, // immutable; same seed and geometry
		occupied: f.occupied,
		rows:     f.rows,
	}
	clone.bsz = f.bsz
	clone.nattr = f.nattr
	clone.fps = append([]uint16(nil), f.fps...)
	clone.flags = append([]uint8(nil), f.flags...)
	// Predicate matching in entryMatches consults attrs/sketches of the
	// ORIGINAL filter during PredicateFilter construction; the clone
	// itself never needs them because its queries are key-only (with an
	// empty predicate, entryMatches never dereferences attribute storage).
	// Leaving them nil keeps the view cheap.
	return clone
}

// Contains reports whether key may belong to S_P. False means no row with
// this key satisfied the predicate at construction time.
func (v *KeyView) Contains(key uint64) bool {
	fp := v.f.fingerprint(key)
	home := v.f.homeBucket(key)
	if v.variant == VariantChained {
		return v.f.queryChained(fp, home, nil)
	}
	l1, l2, _ := v.f.pairBuckets(home, fp)
	if v.bucketContains(l1, fp) {
		return true
	}
	return l2 != l1 && v.bucketContains(l2, fp)
}

func (v *KeyView) bucketContains(bucket uint32, fp uint16) bool {
	f := v.f
	base := int(bucket) * f.bsz
	for j := 0; j < f.bsz; j++ {
		if f.fps[base+j] == fp && f.flags[base+j]&flagTombstone == 0 {
			return true
		}
	}
	return false
}

// SizeBits returns the packed size of the view: m·b·|κ| for erasable
// variants, m·b·(|κ|+1) for the chained variant's tombstoned form.
func (v *KeyView) SizeBits() int64 {
	return int64(v.f.Capacity()) * int64(v.bitsPer)
}

// MatchingEntries returns the number of live (non-erased, non-tombstoned)
// entries remaining in the view.
func (v *KeyView) MatchingEntries() int {
	n := 0
	for idx, fp := range v.f.fps {
		if fp != 0 && v.f.flags[idx]&flagTombstone == 0 {
			n++
		}
	}
	return n
}
