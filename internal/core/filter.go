package core

import (
	"ccf/internal/hashing"
)

// Hash salt names; all are XORed with the user seed so two filters with
// different seeds are fully independent.
const (
	saltIndex    = 0x1001
	saltFp       = 0x2002
	saltAlt      = 0x3003
	saltAttrBase = 0x4004 // + attribute index
	saltChain    = 0x5005
	saltBloomRaw = 0x6006
	saltBloomFp  = 0x7007
	saltEntryBf  = 0x8008
)

// Entry flags.
const (
	flagConverted uint8 = 1 << iota // entry participates in a converted group
	flagTombstone                   // entry erased by a predicate view (§6.2)
)

// hardChainCap bounds chain walks even when MaxChain is unlimited.
const hardChainCap = 4096

// Filter is a Conditional Cuckoo Filter over 64-bit keys with fixed-arity
// 64-bit attribute vectors. Entry storage lives in the embedded packed
// bucketTable (see bucket.go). It is not safe for concurrent mutation; wrap
// it if concurrent use is needed. Queries are safe for concurrent readers:
// they never touch the mutation scratch state.
type Filter struct {
	p        Params
	m        uint32
	mask     uint32
	fpMask   uint16
	attrMask uint16

	// altOff memoizes fpOffset over the whole fingerprint space: the XOR
	// offset between a pair's buckets depends only on the |κ|-bit
	// fingerprint and the seed, so probes, kicks and chain walks look it
	// up instead of re-hashing. Immutable after construction; clones that
	// keep the seed and geometry share it.
	altOff []uint32

	bucketTable

	rngState  uint64
	occupied  int // non-empty entries
	rows      int // Insert calls accepted (including deduplicated rows)
	discarded int // rows dropped at the chain limit (still query true)
	converted int // conversion events (VariantMixed)

	// origAttrBits is nonzero for filters produced by CompressAttributes
	// (§9): attribute fingerprints are computed at the original width and
	// XOR-folded down to AttrBits.
	origAttrBits int

	// chainDepths[d] counts chained insertions that landed in pair d+1 of
	// their key's chain — a diagnostic for duplicate skew (§8's sizing
	// discussion). Depths beyond the histogram accumulate in the last bin.
	chainDepths [16]int

	// scratch is the reusable mutation-path state (carried entry, kick
	// path, attribute staging); see probeScratch.
	scratch probeScratch
}

// New returns a filter configured by p. Zero-valued fields of p take the
// paper's defaults; see Params.
func New(p Params) (*Filter, error) {
	if err := p.setDefaults(); err != nil {
		return nil, err
	}
	m := p.Buckets
	if m == 0 {
		need := float64(p.Capacity) / p.TargetLoad / float64(p.BucketSize)
		m = uint32(need) + 1
	}
	m = nextPow2(m)
	f := &Filter{
		p:        p,
		m:        m,
		mask:     m - 1,
		fpMask:   uint16(1<<p.KeyBits - 1),
		attrMask: uint16(1<<p.AttrBits - 1),
		rngState: p.Seed ^ 0x510e527f,
	}
	f.initTable(m, p)
	f.initAltOffsets()
	f.scratch.init(&f.bucketTable)
	return f, nil
}

// initAltOffsets fills the fpOffset memo table (2^KeyBits entries, 16 KB
// at the default |κ| = 12).
func (f *Filter) initAltOffsets() {
	f.altOff = make([]uint32, 1<<f.p.KeyBits)
	for fp := range f.altOff {
		f.altOff[fp] = uint32(hashing.Key64(uint64(fp), f.p.Seed^saltAlt)) & f.mask
	}
}

// maxBuckets is the largest representable power-of-two bucket count;
// nextPow2 would wrap to 0 above it. Params.setDefaults rejects sizings
// that exceed it.
const maxBuckets = uint64(1) << 31

func nextPow2(v uint32) uint32 {
	if v == 0 {
		return 1
	}
	v--
	v |= v >> 1
	v |= v >> 2
	v |= v >> 4
	v |= v >> 8
	v |= v >> 16
	return v + 1
}

// nextRand is a small deterministic PCG-style generator for kick choices.
func (f *Filter) nextRand() uint64 {
	f.rngState = f.rngState*6364136223846793005 + 1442695040888963407
	return f.rngState >> 33
}

// fingerprint maps a key to a nonzero |κ|-bit fingerprint κ.
func (f *Filter) fingerprint(key uint64) uint16 {
	fp := uint16(hashing.Key64(key, f.p.Seed^saltFp)) & f.fpMask
	if fp == 0 {
		fp = 1
	}
	return fp
}

// homeBucket returns ℓ, the key's primary bucket.
func (f *Filter) homeBucket(key uint64) uint32 {
	return uint32(hashing.Key64(key, f.p.Seed^saltIndex)) & f.mask
}

// fpOffset returns the XOR offset h(κ) that maps between a pair's buckets,
// served from the altOff memo. The fpMask guard keeps a corrupt snapshot's
// out-of-range fingerprint from faulting: it gets a deterministic (if
// meaningless) offset instead.
func (f *Filter) fpOffset(fp uint16) uint32 {
	return f.altOff[fp&f.fpMask]
}

// altBucket returns ℓ′ = ℓ ⊕ h(κ) (partial-key cuckoo hashing, §4.2).
func (f *Filter) altBucket(l uint32, fp uint16) uint32 {
	return l ^ f.fpOffset(fp)
}

// attrFingerprint maps (attribute index, value) to an |α|-bit fingerprint.
// With the small-value optimization (§9), values below 2^|α| are stored
// exactly so low-cardinality columns never collide. Compressed filters
// (§9, CompressAttributes) fingerprint at the original width and fold.
func (f *Filter) attrFingerprint(attr int, v uint64) uint16 {
	if f.origAttrBits != 0 {
		wide := f.attrFingerprintAt(attr, v, f.origAttrBits)
		return foldFingerprint(wide, f.origAttrBits, f.p.AttrBits)
	}
	return f.attrFingerprintAt(attr, v, f.p.AttrBits)
}

func (f *Filter) attrFingerprintAt(attr int, v uint64, bits int) uint16 {
	mask := uint16(1<<bits - 1)
	if !f.p.DisableSmallValueOpt && v < uint64(mask)+1 {
		return uint16(v)
	}
	return uint16(hashing.Key64(v, f.p.Seed^uint64(saltAttrBase+attr))) & mask
}

// bloomElemRaw is the Bloom element for a raw (attribute, value) pair, used
// by VariantBloom (§5.2).
func (f *Filter) bloomElemRaw(attr int, v uint64) uint64 {
	return hashing.Combine3(uint64(attr), v, f.p.Seed^saltBloomRaw)
}

// bloomElemFp is the Bloom element for an (attribute, attribute-fingerprint)
// pair, used by converted groups (§6.1).
func (f *Filter) bloomElemFp(attr int, fp uint16) uint64 {
	return hashing.Combine3(uint64(attr), uint64(fp), f.p.Seed^saltBloomFp)
}

// pairBuckets returns the two buckets of the pair containing l for κ.
// The second return reports whether the pair is degenerate (ℓ = ℓ′).
func (f *Filter) pairBuckets(l uint32, fp uint16) (uint32, uint32, bool) {
	l2 := f.altBucket(l, fp)
	return l, l2, l == l2
}

// countFpInBucket returns the number of slots in the bucket holding κ.
func (f *Filter) countFpInBucket(bucket uint32, fp uint16) int {
	base := int(bucket) * f.bsz
	n := 0
	for j := 0; j < f.bsz; j++ {
		if f.fps[base+j] == fp {
			n++
		}
	}
	return n
}

// countFpInPair returns the number of entries in the pair holding κ.
func (f *Filter) countFpInPair(l1, l2 uint32, fp uint16) int {
	n := f.countFpInBucket(l1, fp)
	if l2 != l1 {
		n += f.countFpInBucket(l2, fp)
	}
	return n
}

// placeWithKicks inserts the carried entry into the pair (l1, l2), kicking
// residents if necessary (Algorithm 4's displacement loop). A displaced
// victim always relocates within its own bucket pair, preserving Lemma 1's
// per-pair duplicate invariant. On failure all displacements are rolled
// back and false is returned.
func (f *Filter) placeWithKicks(l1, l2 uint32, c *carried) bool {
	if idx := f.emptySlotInBucket(l1); idx >= 0 {
		f.swapEntry(idx, c)
		f.occupied++
		return true
	}
	if l2 != l1 {
		if idx := f.emptySlotInBucket(l2); idx >= 0 {
			f.swapEntry(idx, c)
			f.occupied++
			return true
		}
	}
	cur := l1
	if l2 != l1 && f.nextRand()&1 == 1 {
		cur = l2
	}
	path := f.scratch.path[:0]
	for kick := 0; kick < f.p.MaxKicks; kick++ {
		j := int(f.nextRand()) % f.bsz
		idx := int(cur)*f.bsz + j
		f.swapEntry(idx, c) // c now holds the victim
		path = append(path, int32(idx))
		cur = f.altBucket(cur, c.fp)
		if slot := f.emptySlotInBucket(cur); slot >= 0 {
			f.swapEntry(slot, c)
			f.occupied++
			f.scratch.path = path
			return true
		}
	}
	for i := len(path) - 1; i >= 0; i-- {
		f.swapEntry(int(path[i]), c)
	}
	f.scratch.path = path
	return false
}

// Accessors.

// Params returns the filter's effective parameters (defaults resolved).
func (f *Filter) Params() Params { return f.p }

// NumBuckets returns m.
func (f *Filter) NumBuckets() uint32 { return f.m }

// Capacity returns the number of entry slots, m·b.
func (f *Filter) Capacity() int { return int(f.m) * f.p.BucketSize }

// OccupiedEntries returns the number of non-empty entries Z′ (§8).
func (f *Filter) OccupiedEntries() int { return f.occupied }

// Rows returns the number of rows accepted by Insert.
func (f *Filter) Rows() int { return f.rows }

// Discarded returns the number of rows dropped at the chain limit.
func (f *Filter) Discarded() int { return f.discarded }

// Conversions returns the number of Bloom conversion events (VariantMixed).
func (f *Filter) Conversions() int { return f.converted }

// LoadFactor returns occupied / (m·b), the paper's load factor β.
func (f *Filter) LoadFactor() float64 {
	return float64(f.occupied) / float64(f.Capacity())
}

// SizeBits returns the packed size of the sketch in bits, m·b·entryBits,
// following the paper's size accounting (§8, §6.1).
func (f *Filter) SizeBits() int64 {
	return int64(f.Capacity()) * int64(f.p.EntryBits())
}

// SizeBytes returns SizeBits rounded up to whole bytes.
func (f *Filter) SizeBytes() int64 { return (f.SizeBits() + 7) / 8 }

// FreeSlots returns the number of empty entry slots, Capacity −
// OccupiedEntries.
func (f *Filter) FreeSlots() int { return f.Capacity() - f.occupied }

// EstHeadroom estimates how many more inserts the filter is likely to
// accept before reaching its sized-for load factor (TargetLoad, the
// paper's attainable load for the bucket size). Past that point kick
// failures — and with them ErrFull — become likely, so elastic layers
// treat a shrinking headroom as the grow trigger. The estimate is
// conservative in the statistical sense only: individual inserts can
// still fail earlier under adversarial skew.
func (f *Filter) EstHeadroom() int {
	target := int(f.p.TargetLoad * float64(f.Capacity()))
	if h := target - f.occupied; h > 0 {
		return h
	}
	return 0
}

// FilterStats is the point-in-time occupancy summary of one filter,
// exposed per level by Ladder.Stats and per shard by the serving stack.
type FilterStats struct {
	Buckets     uint32  `json:"buckets"`
	Capacity    int     `json:"capacity"`
	Occupied    int     `json:"occupied"`
	Rows        int     `json:"rows"`
	Discarded   int     `json:"discarded"`
	Conversions int     `json:"conversions"`
	LoadFactor  float64 `json:"load_factor"`
	FreeSlots   int     `json:"free_slots"`
	EstHeadroom int     `json:"est_headroom"`
	SizeBits    int64   `json:"size_bits"`
}

// Stats returns the filter's occupancy summary: load factor, free-slot
// and headroom estimates alongside the row counters.
func (f *Filter) Stats() FilterStats {
	return FilterStats{
		Buckets:     f.m,
		Capacity:    f.Capacity(),
		Occupied:    f.occupied,
		Rows:        f.rows,
		Discarded:   f.discarded,
		Conversions: f.converted,
		LoadFactor:  f.LoadFactor(),
		FreeSlots:   f.FreeSlots(),
		EstHeadroom: f.EstHeadroom(),
		SizeBits:    f.SizeBits(),
	}
}
